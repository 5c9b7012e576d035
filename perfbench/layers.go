package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// replays is how many of a workload's cold requests the traced run
// replays in process, rotating over the layouts; each per-layer time is
// the median over them.
const replays = 2 * layouts

// workCounters are the server counters whose measured-phase deltas every
// run records; with a fixed step count they repeat exactly.
var workCounters = []string{
	"points_scanned_total",
	"data_passes_total",
	"kde_kernel_evals_total",
	"coin_flips_total",
	"kdtree_nodes_visited_total",
	"kdtree_nodes_pruned_total",
	"server_kde_builds_total",
	"server_cache_hits_total",
	"server_cache_misses_total",
	"shard_rpcs_total",
	"kde_extends_total",
	"sample_incremental_total",
}

// replaySpec tells the replay what a workload's cold request computes
// over and how.
type replaySpec struct {
	// views are the rows cold requests draw from, one per layout, opened
	// as the server opens them; they all have the same length.
	views []dataset.Dataset
	seeds []uint64 // the cold requests' seeds
	// cold is the cold request's pipeline: "single" (kde.Build +
	// core.Draw), "sharded" (kde.Build + core.NormPartials +
	// core.DrawBlocks) or "window" (a stream append, the window
	// fingerprint, kde.Build + core.Draw).
	cold     string
	driftTol float64 // the server's -drift-tol
}

// span is one traced layer call. Times are nanoseconds since the replay
// started; Parent is -1 for a request's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request_id"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name, req string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Request: req,
		Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// layerTimes collects one duration per replay for each layer call.
type layerTimes map[string][]float64

// call runs fn inside a span named name under parent and records its
// duration in milliseconds.
func (lt layerTimes) call(t *tracer, name, req string, parent int, fn func() error) error {
	id := t.start(name, req, parent)
	err := fn()
	lt[name] = append(lt[name], ms(t.end(id)))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (lt layerTimes) med(name string) float64 { return median(lt[name]) }

// layerMetrics derives the per-layer metrics: work counters from the
// measured phase's /metrics deltas, then the traced in-process replay.
func (b *bench) layerMetrics() (map[string]metric, error) {
	spec, err := b.wl.layers(b)
	if err != nil {
		return nil, err
	}
	m := b.counterMetrics()
	t := &tracer{t0: time.Now()}
	lt, counts, err := replay(b, spec, t)
	if err != nil {
		return nil, err
	}
	if err := b.writeSpans(t); err != nil {
		return nil, err
	}
	n := float64(spec.views[0].Len())
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("dataset.decode_ns_per_point", lt.med("dataset.scan")*1e6/n, "ns/point")
	add("dataset.fingerprint_ms", lt.med("dataset.fingerprint"), "ms")
	add("dataset.append_us", lt.med("dataset.append")*1e3, "us")
	add("kde.build_ms", lt.med("kde.build"), "ms")
	add("kde.density_ns_per_point", lt.med("kde.density")*1e6/n, "ns/point")
	add("kde.extend_ms", lt.med("kde.extend"), "ms")
	add("core.normalize_ms", lt.med("core.normalize"), "ms")
	add("core.draw_ms", lt.med("core.draw"), "ms")
	add("core.coin_pass_ms", lt.med("core.draw")-lt.med("core.normalize"), "ms")
	add("core.extend_draw_ms", lt.med("core.extend_draw"), "ms")
	add("shard.partials_ms", lt.med("shard.partials"), "ms")
	add("shard.draw_ms", lt.med("shard.draw"), "ms")
	add("cure.run_ms", lt.med("cure.run"), "ms")
	add("server.encode_ms", lt.med("server.encode"), "ms")
	add("server.self_ms", percentile(b.tally.lat["cold"], 0.5)-lt.med("pipeline"), "ms")
	for name, v := range counts {
		add(name, v.Value, v.Unit)
	}
	return m, nil
}

// counterMetrics turns the measured phase's counter deltas into
// per-request work and into shares of the server's request time.
func (b *bench) counterMetrics() map[string]metric {
	reqs := float64(b.tally.measured)
	per := func(series string) float64 { return ratio(b.delta(series), reqs) }
	reqSeconds := b.sumDelta("server_request_seconds_sum")
	share := func(prefix string) float64 { return ratio(b.sumDelta(prefix), reqSeconds) }
	hits, misses := b.delta("server_cache_hits_total"), b.delta("server_cache_misses_total")
	return map[string]metric{
		"dataset.points_scanned_per_req": {per("points_scanned_total"), "count"},
		"dataset.passes_per_req":         {per("data_passes_total"), "count"},
		"kde.kernel_evals_per_point":     {ratio(b.delta("kde_kernel_evals_total"), b.delta("coin_flips_total")), "count"},
		"kde.prune_ratio":                {ratio(b.delta("kdtree_nodes_pruned_total"), b.delta("kdtree_nodes_visited_total")), "ratio"},
		"server.kde_builds_per_req":      {per("server_kde_builds_total"), "count"},
		"server.cache_hit_ratio":         {ratio(hits, hits+misses), "ratio"},
		"shard.rpcs_per_req":             {per("shard_rpcs_total"), "count"},
		"server.queue_wait_share":        {share("server_queue_seconds_sum"), "ratio"},
		"server.gold_queue_wait_share": {ratio(b.sumDelta(`server_tenant_queue_seconds_sum{tenant="gold"}`),
			sum(b.tally.lat["warm"])/1e3), "ratio"},
		"server.build_est_share":    {share(`server_stage_seconds_sum{stage="server/build/est`), "ratio"},
		"server.build_sample_share": {share(`server_stage_seconds_sum{stage="server/build/sample`), "ratio"},
		"shard.wait_share":          {share("server_shard_seconds_sum"), "ratio"},
		"bench.gen_late_tail_ms":    {percentile(b.tally.lateness, 0.90), "ms"},
	}
}

// sumDelta adds the deltas of every series whose name starts with prefix
// (all label values of a histogram sum, for instance).
func (b *bench) sumDelta(prefix string) float64 {
	total := 0.0
	for series := range b.after {
		if strings.HasPrefix(series, prefix) {
			total += b.delta(series)
		}
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func encodeSample(name string, fp uint64, sm *core.Sample) ([]byte, error) {
	pts := make([]samplePoint, len(sm.Points))
	for i, wp := range sm.Points {
		pts[i] = samplePoint{P: wp.P, W: wp.W}
	}
	return json.Marshal(sampleResp{Dataset: name, Fingerprint: fpHex(fp), Alpha: alpha, Norm: sm.Norm,
		DataPasses: sm.DataPasses, Saturated: sm.Saturated, Count: len(pts), Points: pts})
}

// seedStreams derives the estimator and draw RNGs from a request seed the
// way dbsserve does, so the replay builds the server's estimator and
// draws the server's sample.
func seedStreams(seed uint64) (est, draw *stats.RNG) {
	st := stats.NewRNG(seed).Splits(2)
	return st[0], st[1]
}

// replay times every layer on the workload's rows, once per replayed
// cold request, and then counts the layers' work once with recorders
// attached (the counting paths are slower, so they are never timed).
// Layers a workload's requests do not reach are still timed on its rows,
// so every workload reports every layer; README.md marks which are on
// the workload's path.
func replay(b *bench, spec *replaySpec, t *tracer) (layerTimes, map[string]metric, error) {
	lt := layerTimes{}
	opts := core.Options{Alpha: alpha, TargetSize: size}
	blocks := make([]int, parallel.NumBlocks(spec.views[0].Len(), parallel.BlockSize(0)))
	for i := range blocks {
		blocks[i] = i
	}
	grow, err := newExtendBase(b.in[0].rows)
	if err != nil {
		return nil, nil, err
	}
	stream, batches, err := newStreamReplay(b)
	if err != nil {
		return nil, nil, err
	}

	var est *kde.Estimator
	var sm *core.Sample
	var encoded []byte
	var allocs float64
	for i := 0; i < replays; i++ {
		req := fmt.Sprintf("%s-replay-%d", b.wl.name, i)
		root := t.start("request", req, -1)
		view := spec.views[i%len(spec.views)]
		seed := spec.seeds[i%len(spec.seeds)]
		estRNG, drawRNG := seedStreams(seed)
		span := func(name string, fn func() error) error { return lt.call(t, name, req, root, fn) }
		call := func(name string, fn func() error) {
			if err == nil {
				err = span(name, fn)
			}
		}
		call("dataset.append", func() error { return stream.Append(batches[i]...) })
		call("dataset.scan", func() error {
			return dataset.ScanBlocks(view, 0, 0, func(int, int, []geom.Point) error { return nil })
		})
		var fp uint64
		call("dataset.fingerprint", func() (err error) {
			fp, err = dataset.Fingerprint(view, 0)
			return err
		})
		call("kde.build", func() (err error) {
			est, err = kde.Build(view, kde.Options{NumKernels: kernels}, estRNG)
			return err
		})
		call("kde.density", func() error { return densityPass(view, est) })
		call("core.normalize", func() error {
			_, err := core.ExactNormParallel(view, est, alpha, 0, 0, 0)
			return err
		})
		call("core.draw", func() (err error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sm, err = core.Draw(view, est, opts, drawRNG)
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs - before.Mallocs)
			return err
		})
		if err == nil {
			err = shardedDraw(view, est, opts, blocks, seed, span)
		}
		call("cure.run", func() error {
			_, err := cure.Run(sm.PlainPoints(), cure.Options{K: clusterK})
			return err
		})
		call("server.encode", func() (err error) {
			encoded, err = encodeSample("replay", fp, sm)
			return err
		})
		if err == nil {
			err = grow.replay(b, i, span)
		}
		if err != nil {
			return nil, nil, err
		}
		t.end(root)
		lt["pipeline"] = append(lt["pipeline"], pipelineMs(spec.cold, lt, i))
	}

	// Count on the last replay's rows and estimator.
	last := replays - 1
	counts, err := countWork(spec.views[last%len(spec.views)], est, opts, blocks, spec.seeds[last%len(spec.seeds)])
	if err != nil {
		return nil, nil, err
	}
	counts["core.allocs_per_draw"] = metric{allocs, "count"}
	counts["server.response_bytes"] = metric{float64(len(encoded) + 1), "bytes"}
	counts["core.rebuild_share"] = metric{rebuildShare(len(b.in[0].rows), spec.driftTol), "ratio"}
	return lt, counts, nil
}

// pipelineMs is replay i's traced time for the workload's cold request:
// the layer calls the server makes for it, summed.
func pipelineMs(cold string, lt layerTimes, i int) float64 {
	at := func(name string) float64 { return lt[name][i] }
	switch cold {
	case "sharded":
		return at("kde.build") + at("shard.partials") + at("shard.draw") + at("server.encode")
	case "window":
		return at("dataset.append") + at("dataset.fingerprint") + at("kde.build") + at("core.draw") + at("server.encode")
	}
	return at("kde.build") + at("core.draw") + at("server.encode")
}

// densityPass evaluates the density at every row once, block by block,
// as the normalization pass does.
func densityPass(view dataset.Dataset, est *kde.Estimator) error {
	return dataset.ScanBlocks(view, 0, 0, func(_, _ int, pts []geom.Point) error {
		est.DensityBatch(pts, make([]float64, len(pts)))
		return nil
	})
}

// spanFn runs one layer call inside a span.
type spanFn func(name string, fn func() error) error

// shardedDraw is the two-phase shard protocol over every block: the
// partial normalizers, merged in block order, then the per-block draws.
func shardedDraw(view dataset.Dataset, est *kde.Estimator, opts core.Options, blocks []int, seed uint64, call spanFn) error {
	var partials []float64
	err := call("shard.partials", func() (err error) {
		partials, err = core.NormPartials(view, est, opts, blocks)
		return err
	})
	if err != nil {
		return err
	}
	norm := 0.0
	for _, k := range partials {
		norm += k
	}
	_, drawRNG := seedStreams(seed)
	return call("shard.draw", func() error {
		_, err := core.DrawBlocks(view, est, opts, norm, core.DrawStreamBase(drawRNG), blocks)
		return err
	})
}

// extendBase is the starting point of the append replay: the rows in
// memory with their estimator and exact sample at a fixed seed, as
// dbsserve caches them for generation 0 of an uploaded dataset.
type extendBase struct {
	rows  []geom.Point
	est   *kde.Estimator
	prior *core.Sample
	ns    core.NormState
}

func newExtendBase(rows []geom.Point) (*extendBase, error) {
	ds, err := dataset.NewInMemory(rows)
	if err != nil {
		return nil, err
	}
	estRNG, drawRNG := seedStreams(1)
	est, err := kde.Build(ds, kde.Options{NumKernels: kernels}, estRNG)
	if err != nil {
		return nil, err
	}
	sm, err := core.Draw(ds, est, core.Options{Alpha: alpha, TargetSize: size}, drawRNG)
	if err != nil {
		return nil, err
	}
	return &extendBase{rows: rows, est: est, prior: sm,
		ns: core.NormState{K: sm.Norm, N: len(rows), Kernels: est.NumKernels()}}, nil
}

// replay is one incremental draw, as dbsserve runs it for an appended
// generation inside the drift budget: with the batch appended (untimed;
// dataset.append is timed on a stream), extend the estimator with centers
// reservoir-picked from the batch, and extend the sample over the batch
// alone.
func (e *extendBase) replay(b *bench, i int, call spanFn) error {
	grow, err := dataset.NewInMemory(append([]geom.Point(nil), e.rows...))
	if err != nil {
		return err
	}
	batch := b.in[0].freshBatch(batchRows, derive(b.o.seed, "grow", i))
	if err := grow.Append(batch...); err != nil {
		return err
	}
	delta, err := dataset.DeltaView(grow, 1)
	if err != nil {
		return err
	}
	dk := (e.ns.Kernels*len(batch) + len(e.rows)/2) / len(e.rows)
	if dk < 1 {
		dk = 1
	}
	centers, err := dataset.Reservoir(delta, dk, stats.NewRNG(derive(b.o.seed, "centers", i)))
	if err != nil {
		return err
	}
	var ext *kde.Estimator
	if err := call("kde.extend", func() (err error) {
		ext, err = e.est.Extend(centers, grow.Len())
		return err
	}); err != nil {
		return err
	}
	view, err := dataset.GenView(grow, 1)
	if err != nil {
		return err
	}
	return call("core.extend_draw", func() error {
		_, _, err := core.ExtendDraw(view, ext, core.ExtendOptions{
			Options:    core.Options{Alpha: alpha, TargetSize: size},
			DeltaStart: len(e.rows),
			Prior:      e.prior,
			PriorNorm:  e.ns,
		}, stats.NewRNG(derive(b.o.seed, "extend-draw", i)))
		return err
	})
}

// newStreamReplay is the stream the replay times dataset.append on: round
// 0's first window of rows, and the batches the stream receives next, one
// per replay. It is grown across the replays and has room for all of
// them, so each timed Append is the steady-state one the server makes,
// not a reallocation of the whole stream.
func newStreamReplay(b *bench) (*dataset.InMemory, [][]geom.Point, error) {
	l := b.layout(0)
	rows := make([]geom.Point, 0, windowRows+replays*batchRows)
	rows = append(rows, l.freshBatch(windowRows, derive(b.o.seed, "stream-start", 0))...)
	stream, err := dataset.NewInMemory(rows)
	if err != nil {
		return nil, nil, err
	}
	batches := make([][]geom.Point, replays)
	for i := range batches {
		batches[i] = l.freshBatch(batchRows, derive(b.o.seed, "stream", i+1))
	}
	return stream, batches, nil
}

// countWork counts the kernel evaluations of one density pass, of a
// draw, and of the two shard phases, and CURE's distance evaluations.
// The counts are exact: they depend on the rows and seed only.
func countWork(view dataset.Dataset, est *kde.Estimator, opts core.Options, blocks []int, seed uint64) (map[string]metric, error) {
	evals := func(fn func() error) (float64, error) {
		rec := obs.New()
		est.SetRecorder(rec)
		defer est.SetRecorder(nil)
		err := fn()
		return float64(rec.Counter(obs.CtrKernelEvals).Value()), err
	}
	pass, err := evals(func() error { return densityPass(view, est) })
	if err != nil {
		return nil, err
	}
	_, drawRNG := seedStreams(seed)
	var sm *core.Sample
	draw, err := evals(func() error {
		sm, err = core.Draw(view, est, opts, drawRNG)
		return err
	})
	if err != nil {
		return nil, err
	}
	sharded, err := evals(func() error {
		return shardedDraw(view, est, opts, blocks, seed, func(_ string, fn func() error) error { return fn() })
	})
	if err != nil {
		return nil, err
	}
	rec := obs.New()
	if _, err := cure.Run(sm.PlainPoints(), cure.Options{K: clusterK, Obs: rec}); err != nil {
		return nil, err
	}
	return map[string]metric{
		"core.density_evals_per_point":  {ratio(draw, pass), "ratio"},
		"shard.density_evals_per_point": {ratio(sharded, pass), "ratio"},
		"cure.dist_evals":               {float64(rec.Counter(obs.CtrCureDistEvals).Value()), "count"},
	}, nil
}

// rebuildShare is the share of appended generations core.RebuildSchedule
// rebuilds exactly over one lineage of roundSteps batches, at the
// workload's drift tolerance (0, every generation exact, when the server
// runs without -drift-tol).
func rebuildShare(n int, tol float64) float64 {
	counts := make([]int, roundSteps+1)
	for j := range counts {
		counts[j] = n + j*batchRows
	}
	exact := 0
	for _, e := range core.RebuildSchedule(counts, tol)[1:] {
		if e {
			exact++
		}
	}
	return float64(exact) / roundSteps
}

// writeSpans writes the replay's spans once the run is over.
func (b *bench) writeSpans(t *tracer) error {
	dir := filepath.Join(b.o.root, ".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": b.wl.name, "seed": b.o.seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", b.wl.name, b.o.seed)), data, 0o644)
}
