package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

func testPoints(n, dims int) []geom.Point {
	rng := stats.NewRNG(42)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// collectBlocks runs ScanBlocks and reassembles the points in block order.
func collectBlocks(t *testing.T, ds Dataset, blockSize, parallelism int) []geom.Point {
	t.Helper()
	nb := (ds.Len() + blockSize - 1) / blockSize
	got := make([][]geom.Point, nb)
	var mu sync.Mutex
	err := ScanBlocks(ds, blockSize, parallelism, func(block, start int, pts []geom.Point) error {
		cloned := make([]geom.Point, len(pts))
		for i, p := range pts {
			cloned[i] = p.Clone()
		}
		mu.Lock()
		got[block] = cloned
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []geom.Point
	for _, blk := range got {
		out = append(out, blk...)
	}
	return out
}

func TestScanBlocksInMemory(t *testing.T) {
	// Sizes straddle the block-multiple boundary: exact multiples, one
	// short, one over, a single point, and fewer points than one block;
	// block size 1 makes every block a singleton, the tail included.
	for _, n := range []int{1, 7, 64, 65, 127, 128, 1000} {
		pts := testPoints(n, 3)
		ds := MustInMemory(pts)
		for _, blockSize := range []int{1, 64} {
			for _, workers := range []int{1, 2, 8} {
				got := collectBlocks(t, ds, blockSize, workers)
				if len(got) != len(pts) {
					t.Fatalf("n=%d block=%d workers=%d: %d points, want %d", n, blockSize, workers, len(got), len(pts))
				}
				for i := range got {
					if !got[i].Equal(pts[i]) {
						t.Fatalf("n=%d block=%d workers=%d: point %d = %v, want %v", n, blockSize, workers, i, got[i], pts[i])
					}
				}
			}
		}
	}
}

// A zero-width window is a legal empty dataset: the scan must complete
// without invoking the callback.
func TestScanBlocksEmptyWindow(t *testing.T) {
	ds := MustInMemory(testPoints(10, 2))
	w, err := Window(ds, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = ScanBlocksCfg(w, ScanConfig{BlockSize: 8}, func(int, int, []geom.Point) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("callback ran %d times on an empty dataset", calls)
	}
}

func TestScanBlocksFileBacked(t *testing.T) {
	pts := testPoints(777, 4)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := collectBlocks(t, fb, 100, workers)
		if len(got) != len(pts) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(pts))
		}
		for i := range got {
			if !got[i].Equal(pts[i]) {
				t.Fatalf("workers=%d: point %d = %v, want %v", workers, i, got[i], pts[i])
			}
		}
	}
}

func TestScanRangeFileBacked(t *testing.T) {
	pts := testPoints(100, 2)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []geom.Point
	if err := fb.ScanRange(17, 53, func(p geom.Point) error {
		got = append(got, p.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 36 {
		t.Fatalf("ScanRange yielded %d points, want 36", len(got))
	}
	for i, p := range got {
		if !p.Equal(pts[17+i]) {
			t.Fatalf("point %d = %v, want %v", i, p, pts[17+i])
		}
	}
	if err := fb.ScanRange(50, 40, func(geom.Point) error { return nil }); err == nil {
		t.Error("inverted range accepted")
	}
	if err := fb.ScanRange(0, 1000, func(geom.Point) error { return nil }); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

// A Dataset that is not a RangeScanner must still block-scan correctly via
// the sequential fallback.
type scanOnly struct{ inner *InMemory }

func (s scanOnly) Scan(fn func(p geom.Point) error) error { return s.inner.Scan(fn) }
func (s scanOnly) Len() int                               { return s.inner.Len() }
func (s scanOnly) Dims() int                              { return s.inner.Dims() }
func (s scanOnly) Passes() int                            { return s.inner.Passes() }

func TestScanBlocksFallback(t *testing.T) {
	pts := testPoints(250, 2)
	ds := scanOnly{inner: MustInMemory(pts)}
	got := collectBlocks(t, ds, 64, 8) // parallelism ignored on the fallback
	if len(got) != len(pts) {
		t.Fatalf("%d points, want %d", len(got), len(pts))
	}
	for i := range got {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d = %v, want %v", i, got[i], pts[i])
		}
	}
}

func TestScanBlocksCountsOnePass(t *testing.T) {
	pts := testPoints(300, 2)
	mem := MustInMemory(pts)
	if err := ScanBlocks(mem, 32, 4, func(int, int, []geom.Point) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if mem.Passes() != 1 {
		t.Errorf("parallel block scan counted %d passes, want 1", mem.Passes())
	}

	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ScanBlocks(fb, 32, 4, func(int, int, []geom.Point) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fb.Passes() != 1 {
		t.Errorf("file-backed block scan counted %d passes, want 1", fb.Passes())
	}
}

func TestScanBlocksStop(t *testing.T) {
	pts := testPoints(500, 2)
	mem := MustInMemory(pts)
	seen := 0
	err := ScanBlocks(mem, 50, 1, func(block, start int, blk []geom.Point) error {
		seen++
		if block == 2 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStopScan leaked: %v", err)
	}
	if seen > 4 {
		t.Errorf("stop did not end the serial scan promptly (%d blocks)", seen)
	}
}

func TestScanBlocksError(t *testing.T) {
	pts := testPoints(500, 2)
	mem := MustInMemory(pts)
	wantErr := os.ErrInvalid
	for _, workers := range []int{1, 4} {
		err := ScanBlocks(mem, 50, workers, func(block, start int, blk []geom.Point) error {
			if block == 3 {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
}

// The ScanBlocksCols* tests keep the names of the columnar scan they were
// first written for; that scan is gone, and they now pin the same
// contracts on ScanBlocksCfg, the one block scan left.

// collectCfg runs ScanBlocksCfg and reassembles the points in block order,
// checking per-block invariants as it goes: no block is empty, each starts
// at block*blockSize, and only the last may be short.
func collectCfg(t *testing.T, ds Dataset, blockSize, parallelism int) []geom.Point {
	t.Helper()
	n := ds.Len()
	nb := (n + blockSize - 1) / blockSize
	got := make([][]geom.Point, nb)
	var mu sync.Mutex
	err := ScanBlocksCfg(ds, ScanConfig{BlockSize: blockSize, Parallelism: parallelism}, func(block, start int, pts []geom.Point) error {
		if len(pts) == 0 {
			t.Errorf("block %d: empty", block)
		}
		if start != block*blockSize {
			t.Errorf("block %d: start %d, want %d", block, start, block*blockSize)
		}
		if block < nb-1 && len(pts) != blockSize {
			t.Errorf("block %d: %d points, want %d", block, len(pts), blockSize)
		}
		cloned := make([]geom.Point, len(pts))
		for i, p := range pts {
			cloned[i] = p.Clone()
		}
		mu.Lock()
		got[block] = cloned
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []geom.Point
	for _, blk := range got {
		out = append(out, blk...)
	}
	return out
}

func TestScanBlocksColsParity(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 127, 128, 777} {
		pts := testPoints(n, 3)
		ds := MustInMemory(pts)
		for _, workers := range []int{1, 4, 8} {
			got := collectCfg(t, ds, 64, workers)
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d points back, want %d", n, workers, len(got), n)
			}
			for i := range got {
				if !got[i].Equal(pts[i]) {
					t.Fatalf("n=%d workers=%d: point %d = %v, want %v", n, workers, i, got[i], pts[i])
				}
			}
		}
	}
}

func TestScanBlocksColsSingletonBlocks(t *testing.T) {
	// blockSize 1: every block is a singleton, including the tail.
	pts := testPoints(9, 2)
	ds := MustInMemory(pts)
	got := collectCfg(t, ds, 1, 4)
	if len(got) != len(pts) {
		t.Fatalf("%d points back, want %d", len(got), len(pts))
	}
	for i := range got {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d = %v, want %v", i, got[i], pts[i])
		}
	}
}

func TestScanBlocksColsError(t *testing.T) {
	// Default parallelism (0 = all CPUs): the error still surfaces.
	ds := MustInMemory(testPoints(100, 2))
	boom := errors.New("boom")
	err := ScanBlocksCfg(ds, ScanConfig{BlockSize: 16}, func(block, _ int, _ []geom.Point) error {
		if block == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestScanBlocksColsStop(t *testing.T) {
	// A serial scan stopped by its first block sees no other block.
	ds := MustInMemory(testPoints(100, 2))
	seen := 0
	err := ScanBlocksCfg(ds, ScanConfig{BlockSize: 16, Parallelism: 1}, func(int, int, []geom.Point) error {
		seen++
		return ErrStopScan
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("saw %d blocks after stop, want 1", seen)
	}
}
