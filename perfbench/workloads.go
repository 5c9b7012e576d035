package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

var workloads = map[string]*workload{
	"cold-mine":     coldMine,
	"shared-flood":  sharedFlood,
	"append-extend": appendExtend,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// more reports whether a loop that has run i steps goes on: exactly
// o.steps steps when set, otherwise until the deadline.
func (b *bench) more(i int, deadline time.Time) bool {
	if b.o.steps > 0 {
		return i < b.o.steps
	}
	return time.Now().Before(deadline)
}

// layout is the layout request i of a rotation uses.
func (b *bench) layout(i int) *inputs { return b.in[i%len(b.in)] }

// prewarmOne sends the request that brings a dataset to steady state
// before the measured phase: the first request computes its fingerprint
// (and, for a file, brings its pages into the page cache).
func prewarmOne(c *client, in *inputs, seed uint64) ([]byte, error) {
	body, err := post(c, "/v1/sample", "", sampleBody(in.name, seed))
	if err == nil {
		_, err = checkSample(body, in.fp)
	}
	if err != nil {
		return nil, fmt.Errorf("prewarming %s: %w", in.name, err)
	}
	return body, nil
}

// upload registers every layout's rows in memory under its name.
func upload(c *client, in []*inputs) error {
	for _, l := range in {
		if _, err := post(c, "/v1/datasets?name="+l.name, binaryType, l.dbs1); err != nil {
			return fmt.Errorf("uploading %s: %w", l.name, err)
		}
	}
	return nil
}

func inMemoryViews(in []*inputs) ([]dataset.Dataset, error) {
	views := make([]dataset.Dataset, len(in))
	for j, l := range in {
		ds, err := dataset.NewInMemory(l.rows)
		if err != nil {
			return nil, err
		}
		views[j] = ds
	}
	return views, nil
}

// ---- cold-mine ----

// coldMine is the paper's sample-then-mine pipeline against DBS1 files
// registered by path (dbsgen's default output, the `dbsserve name=path`
// deployment): one closed-loop client; each step samples at a fresh seed
// (a full cache miss) and then clusters that sample (a sample-cache hit
// followed by CURE).
var coldMine = &workload{
	name:     "cold-mine",
	tail:     map[string]float64{"cold": 0.85, "warm": 0.85},
	rssSteps: 40,
	prepare: func(b *bench) error {
		if err := os.MkdirAll(b.dataDir, 0o755); err != nil {
			return err
		}
		var paths []string
		for _, l := range b.in {
			path := filepath.Join(b.dataDir, l.name+".dbs")
			if err := os.WriteFile(path, l.dbs1, 0o644); err != nil {
				return err
			}
			paths = append(paths, path)
		}
		b.st = paths
		return nil
	},
	args: func(b *bench) []string {
		var args []string
		for j, path := range b.st.([]string) {
			args = append(args, b.in[j].name+"="+path)
		}
		return args
	},
	setup: func(b *bench) error {
		c := newClient(b.srv.base, "")
		defer c.close()
		for j, l := range b.in {
			if _, err := prewarmOne(c, l, derive(b.o.seed, "warm-up", j)); err != nil {
				return err
			}
		}
		return nil
	},
	run: func(b *bench, deadline time.Time) error {
		c := newClient(b.srv.base, "")
		defer c.close()
		last := time.Now()
		for i := 0; b.more(i, deadline); i++ {
			b.noteSteps(i)
			l, seed := b.layout(i), derive(b.o.seed, "cold", i)
			t0 := time.Now()
			b.tally.late(t0.Sub(last))
			body, err := post(c, "/v1/sample", "", sampleBody(l.name, seed))
			d := time.Since(t0)
			var smp *sampleResp
			if err == nil {
				smp, err = checkSample(body, l.fp)
			}
			b.tally.sent("cold sample", err)
			if err != nil {
				last = time.Now()
				continue
			}
			b.tally.latency("cold", d)

			t0 = time.Now()
			body, err = post(c, "/v1/cluster", "", clusterBody(l.name, seed))
			d = time.Since(t0)
			if err == nil {
				err = checkCluster(body, l.fp, smp.Count)
			}
			b.tally.sent("cluster", err)
			if err == nil {
				b.tally.latency("warm", d)
			}
			last = time.Now()
		}
		return nil
	},
	finish: func(b *bench) error { return nil },
	layers: func(b *bench) (*replaySpec, error) {
		var views []dataset.Dataset
		for _, path := range b.st.([]string) {
			view, err := dataset.Open(path)
			if err != nil {
				return nil, err
			}
			views = append(views, view)
		}
		return &replaySpec{views: views, seeds: seedsOf(b.o.seed, "cold"), cold: "single"}, nil
	},
}

// ---- shared-flood ----

// goldPeriod spaces gold's open-loop requests (4 per second): slow
// enough that the cold build gold waits behind does not leave a growing
// backlog.
const goldPeriod = time.Second / 4

// goldBodies are the prewarm bodies gold's hits must repeat, one per
// layout, at the seeds goldSeed gives.
type goldBodies [][]byte

func goldSeed(seed uint64, j int) uint64 { return derive(seed, "gold", j) }

// sharedFlood is a sharded, tenant-weighted server with the rows uploaded
// in memory: bronze floods it with back-to-back cold samples on one
// closed-loop connection, so the single admission slot nearly always
// holds a sharded build, while gold sends cache hits on seeds prewarmed
// during set-up, open-loop at a fixed rate on the other connection.
var sharedFlood = &workload{
	name: "shared-flood",
	flags: []string{"-shards", "2", "-max-inflight", "1",
		"-tenants", "gold:weight=4,priority=high;bronze:weight=1,priority=low"},
	tail:     map[string]float64{"cold": 0.90, "warm": 0.90},
	rssSteps: 60,
	prepare:  func(b *bench) error { return nil },
	args:     func(b *bench) []string { return nil },
	setup: func(b *bench) error {
		c := newClient(b.srv.base, "gold")
		defer c.close()
		if err := upload(c, b.in); err != nil {
			return err
		}
		gold := make(goldBodies, len(b.in))
		for j, l := range b.in {
			body, err := prewarmOne(c, l, goldSeed(b.o.seed, j))
			if err != nil {
				return err
			}
			gold[j] = body
		}
		b.st = gold
		return nil
	},
	run: func(b *bench, deadline time.Time) error {
		gold := b.st.(goldBodies)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			c := newClient(b.srv.base, "bronze")
			defer c.close()
			for i := 0; b.more(i, deadline); i++ {
				b.noteSteps(i)
				l := b.layout(i)
				t0 := time.Now()
				body, err := post(c, "/v1/sample", "", sampleBody(l.name, derive(b.o.seed, "cold", i)))
				d := time.Since(t0)
				if err == nil {
					_, err = checkSample(body, l.fp)
				}
				b.tally.sent("bronze cold sample", err)
				if err == nil {
					b.tally.latency("cold", d)
				}
			}
		}()
		// Gold: request k is due at start + k·goldPeriod and is timed from
		// its due time, so a stall also charges the requests queued behind
		// it. Gold stops with bronze, or at the deadline.
		c := newClient(b.srv.base, "gold")
		defer c.close()
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * goldPeriod)
			if b.o.steps == 0 && !due.Before(deadline) || !sleepUntil(due, done) {
				break
			}
			b.tally.late(time.Since(due))
			j := k % len(b.in)
			body, err := post(c, "/v1/sample", "", sampleBody(b.in[j].name, goldSeed(b.o.seed, j)))
			d := time.Since(due)
			if err == nil && !bytes.Equal(body, gold[j]) {
				err = fmt.Errorf("hit on %s differs from its prewarm body", b.in[j].name)
			}
			b.tally.sent("gold hit", err)
			if err == nil {
				b.tally.latency("warm", d)
			}
		}
		wg.Wait()
		return nil
	},
	finish: func(b *bench) error { return nil },
	layers: func(b *bench) (*replaySpec, error) {
		views, err := inMemoryViews(b.in)
		if err != nil {
			return nil, err
		}
		return &replaySpec{views: views, seeds: seedsOf(b.o.seed, "cold"), cold: "sharded"}, nil
	},
}

// sleepUntil waits until t and reports true, or reports false as soon as
// stop is closed.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

// ---- append-extend ----

const (
	windowRows = 50000 // dbsserve -window
	// roundSteps is how many steps a round lasts: each round appends to
	// a freshly uploaded dataset and a freshly created stream, so every
	// step sees the same dataset and stream sizes however long the run,
	// and the server's memory does not grow with the run's length.
	roundSteps = 24
)

// round is one round of append-extend: a lineage (an uploaded dataset
// grown by appends) and a stream, with the client's mirror of both.
type round struct {
	r      int
	in     *inputs
	name   string // the lineage's dataset name
	seed   uint64 // the lineage's sample seed
	gen    int    // appends applied to the lineage
	mirror *dataset.InMemory
	stream string
	rows   *dataset.InMemory // the stream's rows
}

// growState is append-extend's state: the current round, and what the
// check after the run needs.
type growState struct {
	batches  map[*inputs][][]geom.Point // the lineage batches of each layout
	encoded  map[*inputs][][]byte
	cur      *round
	batchNo  int    // stream batches sent so far
	lastBody []byte // the last windowed sample body
	lastWin  window // ... and the window it sampled
}

// window is a range of a stream's rows.
type window struct {
	rows       *dataset.InMemory
	start, end int
}

// appendExtend interleaves writes with reads: each step appends fresh
// rows to an uploaded dataset and samples it (dbsserve's incremental
// kde.Extend + core.ExtendDraw path, with the exact rebuilds
// core.RebuildSchedule orders), then appends fresh rows to a stream and
// samples its slid window (a window fingerprint plus an exact build).
var appendExtend = &workload{
	name:  "append-extend",
	flags: []string{"-drift-tol", "0.05", "-window", "50000"},
	// The warm tail must sit in the exact rebuilds (3 of every 24 steps);
	// the cold role has no such mode and p90 of it is steadier than p95.
	tail:     map[string]float64{"cold": 0.90, "warm": 0.95},
	rssSteps: 4 * roundSteps,
	prepare: func(b *bench) error {
		st := &growState{batches: map[*inputs][][]geom.Point{}, encoded: map[*inputs][][]byte{}}
		for j, l := range b.in {
			for k := 0; k < roundSteps; k++ {
				pts := l.freshBatch(batchRows, derive(b.o.seed, "grow", j*roundSteps+k))
				enc, err := encode(pts)
				if err != nil {
					return err
				}
				st.batches[l] = append(st.batches[l], pts)
				st.encoded[l] = append(st.encoded[l], enc)
			}
		}
		b.st = st
		return nil
	},
	args: func(b *bench) []string { return nil },
	setup: func(b *bench) error {
		st := b.st.(*growState)
		*st = growState{batches: st.batches, encoded: st.encoded}
		c := newClient(b.srv.base, "")
		defer c.close()
		return st.newRound(b, c, 0)
	},
	run: func(b *bench, deadline time.Time) error {
		st := b.st.(*growState)
		c := newClient(b.srv.base, "")
		defer c.close()
		last := time.Now()
		for i := 0; b.more(i, deadline); i++ {
			b.noteSteps(i)
			if st.cur.gen == roundSteps {
				// Round turnover: requests of neither role.
				if err := st.newRound(b, c, st.cur.r+1); err != nil {
					return err
				}
				last = time.Now()
			}
			b.tally.late(time.Since(last))
			if d, ok := st.extendStep(b, c); ok {
				b.tally.latency("warm", d)
			}
			if d, ok := st.windowStep(b, c); ok {
				b.tally.latency("cold", d)
			}
			last = time.Now()
		}
		return nil
	},
	finish: func(b *bench) error {
		st := b.st.(*growState)
		// The last windowed sample equals the sample of the same rows
		// registered fresh on a server that has never seen them.
		if st.lastBody != nil {
			b.tally.sent("fresh-window comparison", st.compareFresh(b))
		}
		return nil
	},
	layers: func(b *bench) (*replaySpec, error) {
		st := b.st.(*growState)
		n := st.cur.rows.Len()
		view, err := dataset.Window(st.cur.rows, n-windowRows, n)
		if err != nil {
			return nil, err
		}
		return &replaySpec{views: []dataset.Dataset{view}, seeds: []uint64{windowSeed(b.o.seed)},
			cold: "window", driftTol: 0.05}, nil
	},
}

func windowSeed(seed uint64) uint64 { return derive(seed, "window", 0) }

// newRound retires the current round's dataset and stream (if any) and
// starts round r: it uploads layout r's rows as a fresh lineage and
// samples its generation 0, and creates a fresh stream of one window of
// rows and samples it. Every request is counted, and the first that fails
// or does not check out is returned: the round is unusable without it.
func (st *growState) newRound(b *bench, c *client, r int) error {
	if old := st.cur; old != nil {
		for _, name := range []string{old.name, old.stream} {
			_, err := call(c, http.MethodDelete, "/v1/datasets/"+name, "", nil)
			b.tally.sent("delete "+name, err)
			if err != nil {
				return fmt.Errorf("deleting %s: %w", name, err)
			}
		}
	}
	l := b.layout(r)
	cur := &round{r: r, in: l, name: fmt.Sprintf("grow-%d", r), seed: derive(b.o.seed, "grow-seed", r),
		stream: fmt.Sprintf("live-%d", r)}
	var err error
	if cur.mirror, err = dataset.NewInMemory(append([]geom.Point(nil), l.rows...)); err != nil {
		return err
	}
	first := l.freshBatch(windowRows, derive(b.o.seed, "stream-start", r))
	if cur.rows, err = dataset.NewInMemory(first); err != nil {
		return err
	}
	st.cur = cur

	_, err = post(c, "/v1/datasets?name="+cur.name, binaryType, l.dbs1)
	b.tally.sent("upload lineage", err)
	if err != nil {
		return fmt.Errorf("uploading %s: %w", cur.name, err)
	}
	body, err := post(c, "/v1/sample", "", sampleBody(cur.name, cur.seed))
	if err == nil {
		_, err = checkSample(body, l.fp)
	}
	b.tally.sent("lineage base sample", err)
	if err != nil {
		return fmt.Errorf("sampling %s: %w", cur.name, err)
	}

	enc, err := encode(first)
	if err == nil {
		_, err = post(c, "/v1/streams/"+cur.stream+"/append", binaryType, enc)
	}
	b.tally.sent("create stream", err)
	if err != nil {
		return fmt.Errorf("creating %s: %w", cur.stream, err)
	}
	fp, err := dataset.Fingerprint(cur.rows, 0)
	if err != nil {
		return err
	}
	body, err = post(c, "/v1/sample", "", sampleBody(cur.stream, windowSeed(b.o.seed)))
	if err == nil {
		_, err = checkSample(body, fp)
	}
	b.tally.sent("stream base sample", err)
	if err != nil {
		return fmt.Errorf("sampling %s: %w", cur.stream, err)
	}
	return nil
}

// extendStep appends the lineage's next batch and samples the result. It
// returns the time of the two requests alone, and whether both succeeded
// and checked out; the mirror update and the checks run between and after
// the requests, outside the measured time.
func (st *growState) extendStep(b *bench, c *client) (time.Duration, bool) {
	cur := st.cur
	batch := st.batches[cur.in][cur.gen]
	body, d, err := timedPost(c, "/v1/datasets/"+cur.name+"/append", binaryType, st.encoded[cur.in][cur.gen])
	var want uint64
	if err == nil {
		if err = cur.mirror.Append(batch...); err == nil {
			cur.gen++
			want, err = cur.mirror.GenFingerprint(uint64(cur.gen), 1)
		}
	}
	if err == nil {
		var r *appendResp
		if r, err = decodeAppend(body); err == nil {
			switch {
			case r.Generation != uint64(cur.gen) || r.Points != cur.mirror.Len() || r.Added != len(batch):
				err = fmt.Errorf("append reported generation %d with %d points (+%d), want %d with %d (+%d)",
					r.Generation, r.Points, r.Added, cur.gen, cur.mirror.Len(), len(batch))
			case r.Fingerprint != fpHex(want):
				err = fmt.Errorf("append fingerprint %s, want %s", r.Fingerprint, fpHex(want))
			}
		}
	}
	b.tally.sent("dataset append", err)
	if err != nil {
		return 0, false
	}
	body, ds, err := timedPost(c, "/v1/sample", "", sampleBody(cur.name, cur.seed))
	if err == nil {
		_, err = checkSample(body, want)
	}
	b.tally.sent("extended sample", err)
	return d + ds, err == nil
}

// windowStep appends a fresh batch to the stream and samples its window.
// Like extendStep it returns the time of its two requests alone; the
// batch is encoded before them, and the mirror update and the checks,
// the window's fingerprint among them, run outside the measured time.
func (st *growState) windowStep(b *bench, c *client) (time.Duration, bool) {
	cur := st.cur
	st.batchNo++
	pts := cur.in.freshBatch(batchRows, derive(b.o.seed, "stream", st.batchNo))
	enc, err := encode(pts)
	var body []byte
	var d time.Duration
	if err == nil {
		body, d, err = timedPost(c, "/v1/streams/"+cur.stream+"/append", binaryType, enc)
	}
	if err == nil {
		err = cur.rows.Append(pts...)
	}
	n := cur.rows.Len()
	if err == nil {
		var r *appendResp
		if r, err = decodeAppend(body); err == nil &&
			(r.Points != n || r.WindowLen != windowRows || r.WindowStart != n-windowRows) {
			err = fmt.Errorf("stream append reported %d points, window [%d,+%d), want %d, [%d,+%d)",
				r.Points, r.WindowStart, r.WindowLen, n, n-windowRows, windowRows)
		}
	}
	b.tally.sent("stream append", err)
	if err != nil {
		return 0, false
	}
	w := window{rows: cur.rows, start: n - windowRows, end: n}
	body, ds, err := timedPost(c, "/v1/sample", "", sampleBody(cur.stream, windowSeed(b.o.seed)))
	if err == nil {
		var fp uint64
		if fp, err = w.fingerprint(); err == nil {
			_, err = checkSample(body, fp)
		}
	}
	b.tally.sent("window sample", err)
	if err != nil {
		return 0, false
	}
	st.lastBody, st.lastWin = body, w
	return d + ds, true
}

// fingerprint is dataset.Fingerprint of the window's rows.
func (w window) fingerprint() (uint64, error) {
	view, err := dataset.Window(w.rows, w.start, w.end)
	if err != nil {
		return 0, err
	}
	return dataset.Fingerprint(view, 0)
}

// compareFresh uploads the last window's rows to a fresh server and
// checks that its sample is byte-identical to the windowed one.
func (st *growState) compareFresh(b *bench) error {
	w := st.lastWin
	enc, err := encode(w.rows.Points()[w.start:w.end])
	if err != nil {
		return err
	}
	fresh, err := startServer(b.o.server, nil, nil)
	if err != nil {
		return err
	}
	defer fresh.stop()
	c := newClient(fresh.base, "")
	defer c.close()
	// Same name as the stream, so the bodies must match byte for byte.
	name := st.cur.stream
	if _, err := post(c, "/v1/datasets?name="+name, binaryType, enc); err != nil {
		return fmt.Errorf("uploading the window fresh: %w", err)
	}
	body, err := post(c, "/v1/sample", "", sampleBody(name, windowSeed(b.o.seed)))
	if err != nil {
		return err
	}
	if !bytes.Equal(body, st.lastBody) {
		return fmt.Errorf("windowed sample of [%d,%d) differs from the same rows registered fresh", w.start, w.end)
	}
	return nil
}

// seedsOf lists the first request seeds of a stream, for the replay.
func seedsOf(seed uint64, label string) []uint64 {
	out := make([]uint64, replays)
	for i := range out {
		out[i] = derive(seed, label, i)
	}
	return out
}
