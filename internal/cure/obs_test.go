package cure

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Attaching a Recorder must leave the clustering bit-identical, at the
// serial and a parallel worker count, with and without trim phases. The
// distance counter tallies only the evaluations performed (sweep rows and
// unpruned representative pairs), so it is positive and, being a work
// count, the same at every worker count.
func TestRunDeterministicWithRecorder(t *testing.T) {
	rng := stats.NewRNG(5)
	pts, _ := blobs(6, 80, rng)
	for _, trim := range []bool{false, true} {
		evals := map[int]int64{}
		for _, workers := range []int{1, 8} {
			opts := Options{K: 6, Parallelism: workers}
			if trim {
				opts.TrimAt = len(pts) / 3
				opts.TrimMinSize = 3
			}
			ref, err := Run(pts, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			opts.Obs = rec
			got, err := Run(pts, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameClusters(t, ref, got, "run")

			if v := rec.Counter(obs.CtrCureMerges).Value(); v <= 0 {
				t.Fatalf("cure_merges_total = %d, want > 0", v)
			}
			evals[workers] = rec.Counter(obs.CtrCureDistEvals).Value()
			if evals[workers] <= 0 {
				t.Fatalf("cure_dist_evals_total = %d, want > 0", evals[workers])
			}
		}
		if evals[1] != evals[8] {
			t.Fatalf("trim=%v: cure_dist_evals_total %d at 1 worker, %d at 8", trim, evals[1], evals[8])
		}
	}
}

// RunPartitioned with a Recorder must match its own unobserved output too.
func TestRunPartitionedDeterministicWithRecorder(t *testing.T) {
	rng := stats.NewRNG(9)
	pts, _ := blobs(6, 60, rng)
	opts := Options{K: 6, Parallelism: 4}
	ref, err := RunPartitioned(pts, opts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs = obs.New()
	got, err := RunPartitioned(pts, opts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameClusters(t, ref, got, "partitioned")
}
