package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkCountersRepeat runs the two workloads that send a fixed request
// sequence, cold-mine and append-extend, twice each for a fixed number of
// steps at the same seed, against a dbsserve built from this checkout. Every
// output check must pass, and every work counter (points scanned, passes,
// kernel evaluations, KDE builds, cache hits and misses, shard RPCs) must
// repeat exactly: the counters are what later changes are gated on.
func TestWorkCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dbsserve and runs it four times")
	}
	bin := filepath.Join(t.TempDir(), "dbsserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dbsserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dbsserve: %v\n%s", err, out)
	}
	root := t.TempDir()
	// append-extend's 26 steps cross one lineage turnover.
	for name, steps := range map[string]int{"cold-mine": 4, "append-extend": roundSteps + 2} {
		var first map[string]float64
		for rep := 0; rep < 2; rep++ {
			o := options{workload: name, seed: 3, seconds: 1, steps: steps, setups: 1, root: root, server: bin}
			b, err := newBench(o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			err = b.measure()
			b.close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b.tally.failed != 0 || len(b.tally.problems) != 0 {
				t.Fatalf("%s run %d: %d of %d operations failed (%v), problems %v",
					name, rep, b.tally.failed, b.tally.attempted, b.tally.reasons, b.tally.problems)
			}
			got := b.record().Counters
			if got["points_scanned_total"] == 0 || got["kde_kernel_evals_total"] == 0 {
				t.Fatalf("%s: no work counted: %v", name, got)
			}
			if rep == 0 {
				first = got
				continue
			}
			for _, c := range workCounters {
				if got[c] != first[c] {
					t.Errorf("%s: %s = %v, first run %v", name, c, got[c], first[c])
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
		left int
	}{{0.5, 5, 5}, {0.8, 8, 2}, {0.95, 10, 0}, {0.1, 1, 9}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(len(xs), c.p); got != c.left {
			t.Errorf("beyond(%d, %v) = %d, want %d", len(xs), c.p, got, c.left)
		}
	}
}
