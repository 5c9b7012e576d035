// The block kernel.
//
// Every draw reduces to two per-block functions: weighBlock turns a
// block's points into biased weights f'(x)^a and their partial sum, and
// coinBlock turns a block's weights into its selection. Two runners feed
// them blocks. The full-pass runner is one dataset.ScanBlocksCfg pass —
// exactNorm weighs every block, coinPass flips every block's coins — and
// serves Draw and ExtendDraw. The assigned-blocks runner, eachBlock, runs
// an explicit list of global blocks and serves the sharded NormPartials
// and DrawBlocks. Both read a block through the same dataset.BlockReader,
// so the paths agree bit for bit by construction, not by keeping copies
// of a loop in sync.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// validate checks the options every sampling entry point shares and
// resolves the density floor: opts.FloorDensity, or the estimator's
// default when it is zero. Identical estimators yield identical floors,
// so every shard of a sharded draw resolves the same one. flips reports
// whether the caller flips coins, which needs a positive TargetSize.
func validate(ds dataset.Dataset, est DensityEstimator, opts Options, flips bool) (float64, error) {
	switch {
	case est == nil:
		return 0, errors.New("core: nil density estimator")
	case flips && opts.TargetSize <= 0:
		return 0, errors.New("core: TargetSize must be positive")
	case ds.Len() == 0:
		return 0, errors.New("core: empty dataset")
	case opts.FloorDensity < 0:
		return 0, errors.New("core: negative FloorDensity")
	case opts.FloorDensity > 0:
		return opts.FloorDensity, nil
	}
	return defaultFloor(est), nil
}

// checkNorm rejects a normalizer no coin can be flipped against.
func checkNorm(norm float64) error {
	if norm <= 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return fmt.Errorf("core: degenerate normalizer k_a = %v", norm)
	}
	return nil
}

// scanConfig is the full-pass scan configuration opts ask for.
func (o Options) scanConfig() dataset.ScanConfig {
	return dataset.ScanConfig{
		BlockSize:   o.BlockSize,
		Parallelism: o.Parallelism,
		Ctx:         o.Ctx,
		Rec:         o.Obs,
		Progress:    o.Progress,
	}
}

// evalDensities fills out[:len(pts)] with est's density at each point,
// through the batch interface when available.
func evalDensities(est DensityEstimator, pts []geom.Point, out []float64) {
	if b, ok := est.(DensityBatcher); ok {
		b.DensityBatch(pts, out)
		return
	}
	for i, p := range pts {
		out[i] = est.Density(p)
	}
}

// weighBlock fills w with the biased weights max(f(x), floor)^a of one
// block's points and returns their sum, accumulated in index order.
func weighBlock(est DensityEstimator, pts []geom.Point, alpha, floor float64, w []float64) float64 {
	evalDensities(est, pts, w)
	var k float64
	for i, f := range w {
		w[i] = biasedWeight(f, alpha, floor)
		k += w[i]
	}
	return k
}

// coinScratch is the pooled per-block working set of the kernel: a
// weight buffer and the (index, prob) pairs of the block's selected
// points, recorded before any allocation so the selection loop touches
// nothing but scratch.
type coinScratch struct {
	dens  []float64
	idx   []int32
	probs []float64
}

var coinScratchPool = sync.Pool{New: func() interface{} { return new(coinScratch) }}

func getCoinScratch(n int) *coinScratch {
	sc := coinScratchPool.Get().(*coinScratch)
	if cap(sc.dens) < n {
		sc.dens = make([]float64, n)
		sc.idx = make([]int32, n)
		sc.probs = make([]float64, n)
	}
	sc.dens = sc.dens[:n]
	sc.idx = sc.idx[:n]
	sc.probs = sc.probs[:n]
	return sc
}

// sampleArena hands out exactly-sized WeightedPoint segments and
// coordinate slabs carved from shared chunks, replacing the per-point
// Clone of selected points. Chunks are append-only: growing the arena
// allocates a fresh chunk and previously carved segments stay valid (the
// GC keeps old chunks alive through them). One mutex-guarded bump per
// block, two allocations per chunk — amortized, zero allocations per
// block in steady state.
type sampleArena struct {
	mu     sync.Mutex
	dims   int
	wps    []dataset.WeightedPoint
	coords []float64
}

const arenaChunk = 1024

func (a *sampleArena) alloc(k int) ([]dataset.WeightedPoint, []float64) {
	if k == 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if k > cap(a.wps)-len(a.wps) {
		a.wps = make([]dataset.WeightedPoint, 0, max(arenaChunk, k))
	}
	wps := a.wps[len(a.wps) : len(a.wps)+k : len(a.wps)+k]
	a.wps = a.wps[:len(a.wps)+k]
	cs := k * a.dims
	if cs > cap(a.coords)-len(a.coords) {
		a.coords = make([]float64, 0, max(arenaChunk*a.dims, cs))
	}
	coords := a.coords[len(a.coords) : len(a.coords)+cs : len(a.coords)+cs]
	a.coords = a.coords[:len(a.coords)+cs]
	return wps, coords
}

// coinFlipper holds what every block's coin flips share within one pass.
type coinFlipper struct {
	arena     *sampleArena
	b, norm   float64
	cCoins    *obs.Counter
	cSaturate *obs.Counter
}

func newCoinFlipper(ds dataset.Dataset, opts Options, norm float64) *coinFlipper {
	return &coinFlipper{
		arena:     &sampleArena{dims: ds.Dims()},
		b:         float64(opts.TargetSize),
		norm:      norm,
		cCoins:    opts.Obs.Counter(obs.CtrCoinFlips),
		cSaturate: opts.Obs.Counter(obs.CtrSaturated),
	}
}

// coinBlock flips one block's inclusion coins from brng against the
// normalizer and copies the selected points out of the scan buffer into
// arena storage, each weighted 1/P(included). It returns the selections
// in index order and the count of probabilities clipped at 1. Every draw
// — local, incremental, sharded — flips through this loop, so they
// consume brng identically, including Bernoulli's property of consuming
// no state at p ≤ 0 or p ≥ 1.
func (c *coinFlipper) coinBlock(pts []geom.Point, weights []float64, brng *stats.RNG, sc *coinScratch) ([]dataset.WeightedPoint, int) {
	count, sat := 0, 0
	for i, w := range weights {
		prob := c.b * w / c.norm
		if prob >= 1 {
			prob = 1
			sat++
		}
		if brng.Bernoulli(prob) {
			sc.idx[count] = int32(i)
			sc.probs[count] = prob
			count++
		}
	}
	wps, coords := c.arena.alloc(count)
	d := c.arena.dims
	for k := 0; k < count; k++ {
		dst := coords[k*d : (k+1)*d : (k+1)*d]
		copy(dst, pts[sc.idx[k]])
		wps[k] = dataset.WeightedPoint{P: geom.Point(dst), W: 1 / sc.probs[k]}
	}
	c.cCoins.Add(int64(len(pts)))
	c.cSaturate.Add(int64(sat))
	return wps, sat
}

// exactNorm is the full-pass weighing runner: k_a over ds, each block's
// partial summed in block order, so the result is bit-identical at every
// Parallelism. With cache non-nil (length ds.Len()) each block's biased
// weights are kept at the block's offset for the coin pass; blocks write
// disjoint ranges, so the cache needs no synchronization. opts' Obs and
// Progress observe the scan and never influence the sum.
func exactNorm(ds dataset.Dataset, est DensityEstimator, opts Options, floor float64, cache []float64) (float64, error) {
	partials := make([]float64, parallel.NumBlocks(ds.Len(), parallel.BlockSize(opts.BlockSize)))
	err := dataset.ScanBlocksCfg(ds, opts.scanConfig(), func(block, start int, pts []geom.Point) error {
		var w []float64
		if cache != nil {
			w = cache[start : start+len(pts)]
		} else {
			sc := getCoinScratch(len(pts))
			defer coinScratchPool.Put(sc)
			w = sc.dens
		}
		partials[block] = weighBlock(est, pts, opts.Alpha, floor, w)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var k float64
	for _, p := range partials {
		k += p
	}
	return k, nil
}

// coinPass is the full-pass coin runner of Draw and ExtendDraw: block i
// of ds flips from streams[i] against norm, reading its weights from
// cache (indexed by position in ds) or, with cache nil, weighing the
// block in the pass. The selections of every block follow head in block
// order. spanName names the pass in opts.Obs.
func coinPass(ds dataset.Dataset, est DensityEstimator, opts Options, floor, norm float64, cache []float64, streams []stats.RNG, head []dataset.WeightedPoint, spanName string) ([]dataset.WeightedPoint, int, error) {
	perBlock := make([][]dataset.WeightedPoint, len(streams))
	saturated := make([]int, len(streams))
	flip := newCoinFlipper(ds, opts, norm)
	span := opts.Obs.StartSpan(spanName)
	err := dataset.ScanBlocksCfg(ds, opts.scanConfig(), func(block, start int, pts []geom.Point) error {
		sc := getCoinScratch(len(pts))
		defer coinScratchPool.Put(sc)
		weights := sc.dens
		if cache != nil {
			weights = cache[start : start+len(pts)]
		} else {
			weighBlock(est, pts, opts.Alpha, floor, weights)
		}
		perBlock[block], saturated[block] = flip.coinBlock(pts, weights, &streams[block], sc)
		return nil
	})
	span.AddPoints(int64(ds.Len()))
	span.End()
	if err != nil {
		return nil, 0, err
	}
	total, sat := len(head), 0
	for i := range perBlock {
		total += len(perBlock[i])
		sat += saturated[i]
	}
	out := make([]dataset.WeightedPoint, 0, total)
	out = append(out, head...)
	for _, pts := range perBlock {
		out = append(out, pts...)
	}
	return out, sat, nil
}

// eachBlock is the assigned-blocks runner: fn runs once per entry j of
// blocks, on the points of global block blocks[j] of ds, over opts'
// worker budget. Block boundaries come from (ds.Len(), opts.BlockSize)
// exactly as in a full pass, and each block is read through the same
// pooled reader a full pass uses.
func eachBlock(ds dataset.Dataset, opts Options, blocks []int, fn func(j int, pts []geom.Point) error) error {
	n := ds.Len()
	blockSize := parallel.BlockSize(opts.BlockSize)
	numBlocks := parallel.NumBlocks(n, blockSize)
	for _, b := range blocks {
		if b < 0 || b >= numBlocks {
			return fmt.Errorf("core: block index %d out of range [0,%d)", b, numBlocks)
		}
	}
	read := dataset.BlockReader(ds, n)
	if read == nil {
		return fmt.Errorf("core: sharded draw requires a Sliceable or RangeScanner dataset, got %T", ds)
	}
	return parallel.DoCtxObs(opts.Ctx, len(blocks), opts.Parallelism, opts.Obs, func(j int) error {
		start, end := parallel.BlockRange(blocks[j], n, blockSize)
		return read(blocks[j], start, end, func(_, _ int, pts []geom.Point) error {
			return fn(j, pts)
		})
	})
}
