package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/kde"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("parallel", "parallel draw throughput: points/sec and speedup vs one worker", parallelExp)
}

// parallelExp measures the exact two-pass biased draw under the parallel
// execution layer. Every worker count draws from the same seed and the
// samples are checked to be identical — the layer's core guarantee — while
// the table reports wall-clock (best of reps), scan throughput, and
// speedup over the serial reference. cfg.Parallelism (dbsbench -p), when
// above the default sweep, is measured as an extra row.
//
// It also pins worker scaling: two workers must not run slower than one
// beyond a noise allowance (wall-clock p2 ≤ 1.3 × p1, best of reps). This
// guards against the regression an early parallel layer shipped with,
// where DrawParallel/2 (238.8ms) lost to DrawParallel/1 (210.9ms). The pin
// fails the experiment only in the full profile; the quick profile's
// workloads are too small to time reliably.
func parallelExp(cfg Config) (*Table, error) {
	n, reps := 100000, 3
	if cfg.Quick {
		n, reps = 20000, 1
	}
	setup := stats.NewRNG(cfg.Seed)
	l := synth.EqualClusters(10, 4, n, 0.10, setup)
	ds := l.Dataset()
	est, err := kde.Build(ds, kde.Options{NumKernels: 500}, setup)
	if err != nil {
		return nil, err
	}

	workers := []int{1, 2, 4}
	max := cfg.Parallelism
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	if max > workers[len(workers)-1] {
		workers = append(workers, max)
	}

	// draw runs one worker count reps times and keeps the fastest
	// wall-clock; the sample is identical across reps by the determinism
	// contract, so best-of is sound.
	draw := func(p int) (*core.Sample, float64, error) {
		var best float64
		var s *core.Sample
		for r := 0; r < reps; r++ {
			var cur *core.Sample
			d, err := timed(func() error {
				var derr error
				cur, derr = core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000, Parallelism: p, Obs: cfg.Obs}, stats.NewRNG(cfg.Seed))
				return derr
			})
			if err != nil {
				return nil, 0, err
			}
			if sec := d.Seconds(); r == 0 || sec < best {
				best, s = sec, cur
			}
		}
		return s, best, nil
	}

	t := &Table{
		Columns: []string{"workers", "sec", "points/sec", "speedup", "same sample"},
		Notes: []string{
			fmt.Sprintf("exact two-pass draw, n = %d, d = 4, a = 1, b = 1000, 500 kernels, best of %d reps", n, reps),
			fmt.Sprintf("GOMAXPROCS = %d; speedup is wall-clock vs the workers=1 row", runtime.GOMAXPROCS(0)),
		},
	}
	var ref *core.Sample
	var refSec float64
	wall := map[int]float64{}
	for _, p := range workers {
		s, sec, err := draw(p)
		if err != nil {
			return nil, err
		}
		wall[p] = sec
		identical := "ref"
		if ref == nil {
			ref, refSec = s, sec
		} else {
			identical = "yes"
			if !sameDraw(ref, s) {
				return nil, fmt.Errorf("parallel: the %d-worker draw diverged from the serial reference", p)
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(p), fmt.Sprintf("%.3f", sec),
			fmt.Sprintf("%.0f", float64(ds.Len())/sec),
			fmt.Sprintf("%.2fx", refSec/sec),
			identical,
		})
		t.Benchmarks = append(t.Benchmarks, BenchResult{
			Name:         fmt.Sprintf("DrawParallel/%d", p),
			Iters:        reps,
			NsPerOp:      int64(sec * 1e9),
			PointsPerSec: float64(ds.Len()) / sec,
			Speedup:      refSec / sec,
		})
	}

	// Worker-scaling pin: adding a second worker must never cost more than
	// the noise allowance over one.
	ratio := wall[2] / wall[1]
	check := "PASS"
	if ratio > 1.3 {
		check = "FAIL"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scaling check: p2 vs p1 wall-clock ratio %.2f (bound 1.30) — %s", ratio, check))
	if check == "FAIL" && !cfg.Quick {
		return nil, fmt.Errorf("parallel: worker-scaling regression: p2 took %.2fx p1 (bound 1.30)", ratio)
	}
	return t, nil
}

// sameDraw reports whether two draws are byte-identical in every field the
// determinism guarantee covers.
func sameDraw(a, b *core.Sample) bool {
	if a.Norm != b.Norm || a.Saturated != b.Saturated || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i].W != b.Points[i].W || !a.Points[i].P.Equal(b.Points[i].P) {
			return false
		}
	}
	return true
}
