package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix against one dbsserve configuration.
type workload struct {
	name  string
	flags []string // dbsserve flags
	// tail is the percentile each latency role reports as *_tail_ms. Each
	// leaves at least ten samples beyond it at the request counts a
	// 30-second run makes on a 2-CPU box.
	tail map[string]float64
	// rssSteps is the step after which server_rss_mb is read: a fixed
	// amount of work, because the server's cache keeps what every request
	// built, so a peak read at the end would charge a faster server for
	// the extra requests it fitted into the run.
	rssSteps int
	// prepare turns the generated rows into what the workload sends,
	// before any server runs.
	prepare func(b *bench) error
	// args are dbsserve's positional arguments (name=path registrations).
	args func(b *bench) []string
	// setup brings a fresh server to ready-to-measure: registration or
	// upload, the first fingerprint, warm-up or prewarm requests. It is
	// timed as set-up and must reset any state a previous set-up left.
	setup func(b *bench) error
	// run is the measured phase: it sends requests until the deadline,
	// or for exactly o.steps steps when that is set.
	run func(b *bench, deadline time.Time) error
	// finish runs the untimed output checks that need the whole run.
	finish func(b *bench) error
	// layers describes the workload to the traced replay.
	layers func(b *bench) (*replaySpec, error)
}

// roles are the two latency classes every workload reports: cold
// requests build a sample from nothing cached; warm requests reuse what
// earlier requests left on the server. README.md lists the request kind
// behind each role on each workload.
var roles = []string{"cold", "warm"}

// bench is the state of one run.
type bench struct {
	o   options
	wl  *workload
	in  []*inputs
	srv *child
	st  any // workload-specific state, owned by the workload's functions

	dataDir    string    // this run's files; removed when the run ends
	setupTimes []float64 // seconds, one per set-up
	tally      *tally
	before     map[string]float64 // /metrics at the start of the measured phase
	after      map[string]float64 // ... and at its end
	window     time.Duration      // measured phase wall time
	rssMB      float64
}

func newBench(o options, wl *workload) (*bench, error) {
	in, err := makeInputs(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	b := &bench{o: o, wl: wl, in: in, tally: newTally(),
		dataDir: filepath.Join(o.root, ".bench_build", "data", fmt.Sprintf("%s-seed%d-%d", wl.name, o.seed, os.Getpid()))}
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	return b, nil
}

// close stops the server, if one is running.
func (b *bench) close() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

// measure runs the set-ups, the measured phase and the untimed checks.
func (b *bench) measure() error {
	for i := 0; i < b.o.setups; i++ {
		b.close()
		t0 := time.Now()
		srv, err := startServer(b.o.server, b.wl.flags, b.wl.args(b))
		if err != nil {
			return err
		}
		b.srv = srv
		if err := b.wl.setup(b); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
	}
	// Set-up requests are checked by the set-ups themselves (a failure
	// aborts the run); the counts start with the measured phase.
	b.tally = newTally()
	c := newClient(b.srv.base, "")
	defer c.close()
	var err error
	if b.before, err = scrape(c); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	b.tally.measuring(true)
	t0 := time.Now()
	if err := b.wl.run(b, deadline); err != nil {
		return err
	}
	b.window = time.Since(t0)
	b.tally.measuring(false)
	if b.after, err = scrape(c); err != nil {
		return err
	}
	if b.rssMB == 0 {
		// The run ended before rssSteps steps (a slow box, or a short
		// step-bounded test run).
		if b.rssMB, err = b.srv.peakRSSMB(); err != nil {
			return err
		}
	}
	if err := b.wl.finish(b); err != nil {
		return err
	}
	b.close()
	return nil
}

// noteSteps is called with the number of steps done so far, before each
// step of the measured phase; it reads the server's peak RSS once they
// reach the workload's rssSteps.
func (b *bench) noteSteps(done int) {
	if done != b.wl.rssSteps {
		return
	}
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		b.tally.problem("reading the server's peak RSS: %v", err)
		return
	}
	b.rssMB = rss
}

// delta is a counter's growth over the measured phase.
func (b *bench) delta(series string) float64 { return b.after[series] - b.before[series] }

// endToEnd derives the end-to-end metrics.
func (b *bench) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":       {median(b.setupTimes), "s"},
		"goodput_rps":   {float64(b.tally.measuredOK) / b.window.Seconds(), "1/s"},
		"server_rss_mb": {b.rssMB, "MB"},
	}
	for _, role := range roles {
		lat := b.tally.lat[role]
		m[role+"_p50_ms"] = metric{percentile(lat, 0.50), "ms"}
		m[role+"_tail_ms"] = metric{percentile(lat, b.wl.tail[role]), "ms"}
	}
	return m
}

// tally counts operations and collects latencies; the shared-flood
// workload's two clients write to it concurrently.
type tally struct {
	mu         sync.Mutex
	inWindow   bool
	attempted  int
	failed     int
	measuredOK int // successful requests inside the measured phase
	measured   int // requests sent inside the measured phase
	lat        map[string][]float64
	lateness   []float64 // ms: how late each measured request was sent
	problems   []string
	reasons    map[string]int
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, reasons: map[string]int{}}
}

func (t *tally) measuring(on bool) {
	t.mu.Lock()
	t.inWindow = on
	t.mu.Unlock()
}

// sent counts one request that succeeded (err nil) or failed; a failure
// keeps its reason for the run record.
func (t *tally) sent(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if t.inWindow {
		t.measured++
	}
	if err == nil {
		if t.inWindow {
			t.measuredOK++
		}
		return
	}
	t.failed++
	reason := what + ": " + err.Error()
	if len(reason) > 240 {
		reason = reason[:240]
	}
	t.reasons[reason]++
}

func (t *tally) latency(role string, d time.Duration) {
	t.mu.Lock()
	t.lat[role] = append(t.lat[role], ms(d))
	t.mu.Unlock()
}

func (t *tally) late(d time.Duration) {
	t.mu.Lock()
	t.lateness = append(t.lateness, ms(d))
	t.mu.Unlock()
}

// problem records a failed check that is not tied to one request.
func (t *tally) problem(format string, args ...any) {
	t.mu.Lock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs (0 when xs is empty,
// which only happens when every request of a role failed).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// beyond is how many samples lie above the p-th percentile's rank.
func beyond(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// record is the run record written under .bench_build/out.
type record struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Metrics    map[string]metric  `json:"metrics"`
	Problems   []string           `json:"problems,omitempty"`
	Failures   map[string]int     `json:"failures,omitempty"`
	Counters   map[string]float64 `json:"counter_deltas"`
}

type provenance struct {
	Commit      string             `json:"commit"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Steps       int                `json:"steps,omitempty"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NumCPU      int                `json:"nproc"`
	CPUModel    string             `json:"cpu_model"`
	ServerFlags []string           `json:"dbsserve_flags"`
	Dataset     string             `json:"dataset"`
	Attempted   int                `json:"attempted"`
	Succeeded   int                `json:"succeeded"`
	Failed      int                `json:"failed"`
	WindowS     float64            `json:"measured_s"`
	SetupS      []float64          `json:"setup_s"`
	Samples     map[string]int     `json:"latency_samples"`
	TailPct     map[string]float64 `json:"tail_percentile"`
	TailBeyond  map[string]int     `json:"tail_samples_beyond"`
	Backlog     bool               `json:"growing_backlog"`
}

func (b *bench) record() *record {
	t := b.tally
	p := provenance{
		Commit:      commit(b.o.root),
		Workload:    b.wl.name,
		Seed:        b.o.seed,
		Trace:       b.o.trace,
		Seconds:     b.o.seconds,
		Steps:       b.o.steps,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		ServerFlags: b.wl.flags,
		Dataset:     shape(b.in),
		Attempted:   t.attempted,
		Succeeded:   t.attempted - t.failed,
		Failed:      t.failed,
		WindowS:     b.window.Seconds(),
		SetupS:      b.setupTimes,
		Samples:     map[string]int{},
		TailPct:     b.wl.tail,
		TailBeyond:  map[string]int{},
		Backlog:     growingBacklog(t.lateness),
	}
	for _, role := range roles {
		n := len(t.lat[role])
		p.Samples[role] = n
		p.TailBeyond[role] = beyond(n, b.wl.tail[role])
	}
	rec := &record{Provenance: p, Problems: t.problems, Failures: t.reasons, Counters: map[string]float64{}}
	for _, name := range workCounters {
		rec.Counters[name] = b.delta(name)
	}
	return rec
}

// growingBacklog reports whether the generator fell further behind over
// the run: the mean lateness of the last third of the requests exceeds
// the first third's by more than 100 ms.
func growingBacklog(late []float64) bool {
	n := len(late) / 3
	if n == 0 {
		return false
	}
	return (sum(late[len(late)-n:])-sum(late[:n]))/float64(n) > 100
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
