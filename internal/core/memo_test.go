package core

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// kernelEvals runs fn against est with a fresh recorder attached and
// returns the candidate kernel evaluations it caused.
func kernelEvals(t *testing.T, est *kde.Estimator, fn func() error) int64 {
	t.Helper()
	rec := obs.New()
	est.SetRecorder(rec)
	defer est.SetRecorder(nil)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return rec.Counter(obs.CtrKernelEvals).Value()
}

// An exact draw evaluates each density once whatever the dataset's
// storage: a DBS1 file, which cannot hand out its rows, records exactly
// the kernel evaluations of one DensityBatch pass — the same as the same
// rows in memory — and ExtendDraw's delta does the same.
func TestDrawEvaluatesEachDensityOnce(t *testing.T) {
	setup := stats.NewRNG(131)
	mem, pts := twoBlobs(2500, 1500, setup)
	est := buildKDE(t, mem, 120, setup)
	path := filepath.Join(t.TempDir(), "blobs.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	onePass := kernelEvals(t, est, func() error {
		est.DensityBatch(pts, make([]float64, len(pts)))
		return nil
	})
	if onePass == 0 {
		t.Fatal("the kernel-evaluation counter recorded nothing")
	}
	opts := Options{Alpha: 1, TargetSize: 300, BlockSize: 256, Parallelism: 4}
	for _, tc := range []struct {
		name string
		ds   dataset.Dataset
	}{{"inmemory", mem}, {"filebacked", fb}} {
		got := kernelEvals(t, est, func() error {
			_, err := Draw(tc.ds, est, opts, stats.NewRNG(5))
			return err
		})
		if got != onePass {
			t.Errorf("%s: Draw recorded %d kernel evaluations, one pass is %d", tc.name, got, onePass)
		}
	}

	// ExtendDraw over a file: the delta's densities are evaluated once.
	const deltaStart = 3000
	head, err := dataset.Window(mem, 0, deltaStart)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := Draw(head, est, opts, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	deltaEvals := kernelEvals(t, est, func() error {
		est.DensityBatch(pts[deltaStart:], make([]float64, len(pts)-deltaStart))
		return nil
	})
	got := kernelEvals(t, est, func() error {
		_, _, err := ExtendDraw(fb, est, ExtendOptions{
			Options:    opts,
			Prior:      prior,
			PriorNorm:  NormState{K: prior.Norm, N: deltaStart, Kernels: est.NumKernels()},
			DeltaStart: deltaStart,
		}, stats.NewRNG(6))
		return err
	})
	if got != deltaEvals {
		t.Errorf("ExtendDraw recorded %d kernel evaluations, one pass over the delta is %d", got, deltaEvals)
	}
}

// mapMemo is a plain WeightMemo; drop, when set, refuses to store the
// blocks it names, forcing DrawBlocks to recompute them.
type mapMemo struct {
	mu   sync.Mutex
	m    map[int][]float64
	drop func(block int) bool
}

func (mm *mapMemo) Put(block int, w []float64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.drop == nil || !mm.drop(block) {
		mm.m[block] = w
	}
}

func (mm *mapMemo) Take(block int) []float64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	w := mm.m[block]
	delete(mm.m, block)
	return w
}

// With a WeightMemo, NormPartials + DrawBlocks evaluate each density once
// and return exactly what they return without one; blocks the memo does
// not hold are recomputed to the same bits.
func TestWeightMemoParity(t *testing.T) {
	setup := stats.NewRNG(151)
	mem, pts := twoBlobs(2000, 1000, setup)
	est := buildKDE(t, mem, 100, setup)
	const blockSize = 256
	numBlocks := parallel.NumBlocks(mem.Len(), blockSize)
	blocks := make([]int, numBlocks)
	for i := range blocks {
		blocks[i] = i
	}
	onePass := kernelEvals(t, est, func() error {
		est.DensityBatch(pts, make([]float64, len(pts)))
		return nil
	})

	run := func(memo WeightMemo) ([]float64, []BlockSample, int64) {
		opts := Options{Alpha: 0.5, TargetSize: 300, BlockSize: blockSize, Parallelism: 4, WeightMemo: memo}
		var parts []float64
		var draws []BlockSample
		evals := kernelEvals(t, est, func() (err error) {
			if parts, err = NormPartials(mem, est, opts, blocks); err != nil {
				return err
			}
			var norm float64
			for _, p := range parts {
				norm += p
			}
			draws, err = DrawBlocks(mem, est, opts, norm, 99, blocks)
			return err
		})
		return parts, draws, evals
	}
	wantParts, wantDraws, plainEvals := run(nil)
	if plainEvals != 2*onePass {
		t.Fatalf("without a memo: %d kernel evaluations, want two passes (%d)", plainEvals, 2*onePass)
	}
	for _, tc := range []struct {
		name      string
		drop      func(int) bool
		wantEvals int64
	}{
		{"hit", nil, onePass},
		{"miss", func(int) bool { return true }, 2 * onePass},
		{"partial", func(b int) bool { return b%3 == 0 }, -1},
	} {
		memo := &mapMemo{m: map[int][]float64{}, drop: tc.drop}
		parts, draws, evals := run(memo)
		if tc.wantEvals >= 0 && evals != tc.wantEvals {
			t.Errorf("%s: %d kernel evaluations, want %d", tc.name, evals, tc.wantEvals)
		}
		if len(memo.m) != 0 {
			t.Errorf("%s: %d blocks left in the memo after DrawBlocks", tc.name, len(memo.m))
		}
		for i := range parts {
			if math.Float64bits(parts[i]) != math.Float64bits(wantParts[i]) {
				t.Fatalf("%s: partial %d differs", tc.name, i)
			}
		}
		for i := range draws {
			g, w := draws[i], wantDraws[i]
			if g.Block != w.Block || g.Saturated != w.Saturated || len(g.Points) != len(w.Points) {
				t.Fatalf("%s: block %d: %d points/%d saturated, want %d/%d",
					tc.name, w.Block, len(g.Points), g.Saturated, len(w.Points), w.Saturated)
			}
			for j := range g.Points {
				if !g.Points[j].P.Equal(w.Points[j].P) || math.Float64bits(g.Points[j].W) != math.Float64bits(w.Points[j].W) {
					t.Fatalf("%s: block %d point %d differs", tc.name, w.Block, j)
				}
			}
		}
	}
}
