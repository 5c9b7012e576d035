package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// writeFile is a tiny helper for handcrafting malformed dataset files.
func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.dbs")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenFileTruncatedHeader(t *testing.T) {
	path := writeFile(t, []byte("DBS1\x02\x00"))
	if _, err := OpenFile(path); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestOpenFileBadMagic(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, "NOPE")
	binary.LittleEndian.PutUint32(hdr[4:8], 2)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	if _, err := OpenFile(writeFile(t, hdr)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestOpenFileMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dims, count uint64
	}{
		{"zero dims", 0, 10},
		{"zero count", 2, 0},
	} {
		hdr := make([]byte, 16)
		copy(hdr, binaryMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(tc.dims))
		binary.LittleEndian.PutUint64(hdr[8:16], tc.count)
		if _, err := OpenFile(writeFile(t, hdr)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestReadBinaryImplausibleDims(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<20)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil {
		t.Error("implausible dims accepted")
	}
}

// A file whose size disagrees with its header — rows cut short, trailing
// bytes, or a count whose byte size overflows — is rejected at open, and so
// is a dimensionality beyond the bound ReadBinary enforces.
func TestOpenFileSizeMismatch(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}, {3, 4}, {5, 6}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mem); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := OpenFile(writeFile(t, full)); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
	header := func(dims uint32, count uint64) []byte {
		hdr := make([]byte, 16)
		copy(hdr, binaryMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], dims)
		binary.LittleEndian.PutUint64(hdr[8:16], count)
		return hdr
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"truncated row", full[:len(full)-8]},
		{"missing rows", full[:16]},
		{"padded", append(append([]byte(nil), full...), 0)},
		{"extra row", append(append([]byte(nil), full...), make([]byte, 16)...)},
		{"count overflows size", header(2, 1<<62)},
		{"count overflows int", header(1, math.MaxUint64)},
		{"implausible dims", append(header(1<<20, 1), make([]byte, 8<<20)...)},
	} {
		if _, err := OpenFile(writeFile(t, tc.b)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// A file cut short after it was opened must fail the pass, not silently
// deliver a short dataset — on the streaming scan and on the concurrent
// range scan alike.
func TestFileBackedTruncatedRows(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}, {3, 4}, {5, 6}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mem); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, buf.Bytes())
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(buf.Len()-8)); err != nil {
		t.Fatal(err)
	}
	if err := fb.Scan(func(geom.Point) error { return nil }); err == nil {
		t.Error("Scan completed over truncated rows")
	}
	if err := fb.ScanRange(0, fb.Len(), func(geom.Point) error { return nil }); err == nil {
		t.Error("ScanRange completed over truncated rows")
	}
	if err := ScanBlocks(fb, 2, 4, func(int, int, []geom.Point) error { return nil }); err == nil {
		t.Error("ScanBlocks completed over truncated rows")
	}
}

func TestAppendValidation(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}})
	if err := mem.Append(geom.Point{3, 4, 5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := mem.Append(geom.Point{math.NaN(), 0}); err == nil {
		t.Error("non-finite coordinate accepted")
	}
	// Validation is all-or-nothing: a valid point ahead of an invalid one
	// must not land.
	if err := mem.Append(geom.Point{3, 4}, geom.Point{5}); err == nil {
		t.Error("batch with invalid tail accepted")
	}
	if mem.Len() != 1 {
		t.Errorf("len = %d after rejected appends, want 1", mem.Len())
	}
	if err := mem.Append(geom.Point{3, 4}); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 2 {
		t.Errorf("len = %d after valid append, want 2", mem.Len())
	}
}
