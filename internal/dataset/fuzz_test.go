package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
)

// checkDecoded is the property every eager decoder must hold: an accepted
// dataset is non-empty, has one dimensionality, holds only finite
// coordinates, and survives a WriteBinary→ReadBinary round trip bit for
// bit.
func checkDecoded(t *testing.T, ds *InMemory) {
	t.Helper()
	pts := ds.Points()
	if len(pts) == 0 || len(pts) != ds.Len() {
		t.Fatalf("accepted %d points, Len %d", len(pts), ds.Len())
	}
	for i, p := range pts {
		if p.Dims() != ds.Dims() {
			t.Fatalf("point %d has %d dims, dataset %d", i, p.Dims(), ds.Dims())
		}
		if !p.IsFinite() {
			t.Fatalf("point %d accepted with non-finite coordinates %v", i, p)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if back.Len() != ds.Len() || back.Dims() != ds.Dims() {
		t.Fatalf("round trip: %d×%d, want %d×%d", back.Len(), back.Dims(), ds.Len(), ds.Dims())
	}
	for i, p := range back.Points() {
		for j, v := range p {
			if math.Float64bits(v) != math.Float64bits(pts[i][j]) {
				t.Fatalf("round trip: point %d coord %d is %v, want %v", i, j, v, pts[i][j])
			}
		}
	}
}

// checkLazyScan is the property every lazily opened file must hold: a
// full Scan either fails or yields exactly Len() points of Dims()
// coordinates.
func checkLazyScan(t *testing.T, ds Dataset) {
	t.Helper()
	n := 0
	err := ds.Scan(func(p geom.Point) error {
		if p.Dims() != ds.Dims() {
			t.Fatalf("point %d has %d dims, dataset %d", n, p.Dims(), ds.Dims())
		}
		n++
		return nil
	})
	if err == nil && n != ds.Len() {
		t.Fatalf("scan yielded %d points, Len %d", n, ds.Len())
	}
}

// binaryFile builds DBS1 bytes: magic, dims, count, then raw coordinates.
func binaryFile(dims uint32, count uint64, coords ...float64) []byte {
	b := []byte(binaryMagic)
	b = binary.LittleEndian.AppendUint32(b, dims)
	b = binary.LittleEndian.AppendUint64(b, count)
	for _, v := range coords {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.dbs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzReadCSV: arbitrary text through the CSV decoder never panics, and
// whatever it accepts is a well-formed dataset.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,2\n3,4\n",
		"# header\n\n0.5, 0.25\n",
		"1,2\n3\n",
		"1,NaN\n",
		"+Inf,1\n",
		"1e309,0\n",
		"0x1p-3,5\n",
		"",
		",\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ds, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			return
		}
		checkDecoded(t, ds)
	})
}

// FuzzReadBinary: arbitrary DBS1 bytes never panic the eager decoder or
// the lazily opened file. ReadBinary accepts only well-formed datasets;
// OpenFile's full scan yields exactly Len() points or fails.
func FuzzReadBinary(f *testing.F) {
	f.Add(binaryFile(2, 2, 1, 2, 3, 4))
	f.Add(binaryFile(1, 1, math.NaN()))
	f.Add(binaryFile(2, 3, 1, 2, 3, 4))
	f.Add(binaryFile(3, 1<<40, 1, 2, 3))
	f.Add(binaryFile(0, 1))
	f.Add(binaryFile(1<<20, 1, 0))
	f.Add([]byte("DBS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ds, err := ReadBinary(bytes.NewReader(data)); err == nil {
			checkDecoded(t, ds)
		}
		fb, err := OpenFile(writeTemp(t, data))
		if err != nil {
			return
		}
		checkLazyScan(t, fb)
	})
}

// FuzzOpenSegmented: arbitrary DBS2 bytes never panic OpenSegmented, and
// an opened file's full scan yields exactly Len() points or fails — on
// the mapped path and the decode path alike.
func FuzzOpenSegmented(f *testing.F) {
	seg := func(dims uint32, counts ...uint64) []byte {
		b := []byte(segmentMagic)
		b = binary.LittleEndian.AppendUint32(b, dims)
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint64(b, c)
			for i := uint64(0); i < c*uint64(dims) && i < 64; i++ {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(i)))
			}
		}
		return b
	}
	f.Add(seg(2, 3))
	f.Add(seg(2, 1, 2))
	f.Add(seg(1, 100))
	f.Add(seg(0, 1))
	f.Add(seg(3))
	f.Add([]byte("DBS2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, data)
		for _, disabled := range []bool{false, true} {
			mmapDisabled = disabled
			sf, err := OpenSegmented(path)
			mmapDisabled = false
			if err != nil {
				return
			}
			checkLazyScan(t, sf)
			sf.Close()
		}
	})
}
