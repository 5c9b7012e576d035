// Command perfbench is the repository's benchmark. It starts a dbsserve
// child built from the same checkout, drives one workload against it over
// loopback HTTP, checks every response, and prints the metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing anywhere. With -trace 1 the same workload runs again for the
// server's work counters, and then its requests are replayed as in-process
// calls to each layer's public functions, with spans around those calls;
// the metrics are the per-layer ones. See README.md for the workloads and
// the meaning of every metric. Run it through run.sh, which builds both
// binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxRun bounds one invocation: a run that would overrun it is abandoned
// with a non-zero exit instead of a result.
const maxRun = 170 * time.Second

// setupRuns is how many times a run sets the server up; setup_s is the
// median.
const setupRuns = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	server   string
	steps    int // > 0: run exactly this many steps instead of seconds (tests)
	setups   int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setups: setupRuns}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the dataset, append batches and request seeds all derive from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (work counters plus the traced in-process replay)")
	flag.StringVar(&o.root, "root", ".", "checkout root (holds go.mod and .bench_build/)")
	flag.StringVar(&o.server, "server", "", "dbsserve binary built from the checkout")
	flag.Parse()
	o.trace = trace == 1
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	timer := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, abandoned\n", maxRun)
		os.Exit(1)
	})
	res, rec, err := run(o)
	timer.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(o, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	printHuman(res, rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validate(o options) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want %s)", o.workload, workloadNames())
	}
	if o.server == "" {
		return fmt.Errorf("missing -server (run through run.sh, which builds it)")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	return nil
}

// run executes one workload and derives the reported metrics.
func run(o options) (result, *record, error) {
	wl := workloads[o.workload]
	b, err := newBench(o, wl)
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(b.dataDir)
	defer b.close()
	if err := b.measure(); err != nil {
		return result{}, nil, err
	}
	rec := b.record()
	res := result{
		Correct:   b.tally.failed == 0 && len(b.tally.problems) == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
	}
	if o.trace {
		layers, err := b.layerMetrics()
		if err != nil {
			return result{}, nil, err
		}
		res.Metrics = layers
	} else {
		res.Metrics = b.endToEnd()
	}
	rec.Metrics = res.Metrics
	rec.Correct = res.Correct
	return res, rec, nil
}

func printHuman(res result, rec *record) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("operations: attempted %d, succeeded %d, failed %d\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed)
	for _, p := range rec.Problems {
		fmt.Printf("problem: %s\n", p)
	}
	prov, err := json.Marshal(rec.Provenance)
	if err == nil {
		fmt.Printf("provenance: %s\n", prov)
	}
}

// writeRecord keeps the full run record (provenance, every metric, the
// failure reasons) under .bench_build/out for later inspection.
func writeRecord(o options, rec *record) error {
	dir := filepath.Join(o.root, ".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
