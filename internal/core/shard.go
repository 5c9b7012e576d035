// Sharded draw primitives.
//
// The exact sampler's two dataset passes decompose by scan block: the
// normalizer k_a = Σ f'(x_i) is a plain sum whose per-block partials merge
// exactly when added back in block order, and the coin-flip pass already
// gives every block an independent RNG stream derived from (base, block
// index) alone. NormPartials and DrawBlocks expose exactly those per-block
// computations so a coordinator (internal/shard) can scatter blocks across
// workers and gather a sample that is bit-for-bit identical to Draw's —
// the single-node determinism guarantee, extended one level up.
//
// Both entry points run Draw's own block kernel (weighBlock, coinBlock)
// through the assigned-blocks runner (eachBlock), so parity is enforced
// structurally, not by keeping two copies of a loop in sync. With
// Options.WeightMemo set, NormPartials hands each block's
// weights to DrawBlocks, so a worker serving both phases of a run
// evaluates each density once, as Draw does.
package core

import (
	"errors"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/stats"
)

// BlockSample is one block's contribution to a sharded draw: the selected
// weighted points of global block Block in index order, plus the block's
// count of probabilities clipped at 1. Concatenating the BlockSamples of
// blocks 0..NumBlocks-1 in block order reproduces Draw's Points, and
// summing Saturated reproduces Draw's Saturated.
type BlockSample struct {
	Block     int
	Points    []dataset.WeightedPoint
	Saturated int
}

// WeightMemo holds the biased weights f'(x)^a of whole scan blocks between
// the two phases of a sharded draw. An implementation is bound to one
// run's identity (dataset content, estimator, alpha, block size), so a
// block index alone addresses an entry. It must be safe for concurrent
// use, and it may drop entries at any time: Take then reports a miss and
// DrawBlocks recomputes the block.
type WeightMemo interface {
	// Put stores block's weights; the memo owns the slice afterwards.
	Put(block int, weights []float64)
	// Take removes and returns block's weights, or nil when it holds none.
	Take(block int) []float64
}

// memoWeightPool recycles the per-block weight slices that travel through
// a WeightMemo: NormPartials takes one per block and DrawBlocks returns it
// once the block's coins are flipped. Allocated afresh, 8 bytes per point
// per request became garbage that lifted a sharded server's resident
// peak. Slices a memo drops go to the collector.
var memoWeightPool sync.Pool

func getMemoWeights(n int) []float64 {
	if p, ok := memoWeightPool.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putMemoWeights(w []float64) { memoWeightPool.Put(&w) }

// DrawStreamBase consumes one draw of rng — exactly the draw
// stats.RNG.SplitsValues makes inside Draw — and returns it as the base
// every per-block coin stream derives from: block i's stream is
// stats.StreamAt(base, i). A coordinator calls this where it would have
// called Draw, ships the base to its workers, and rng is left in the same
// state either way.
func DrawStreamBase(rng *stats.RNG) uint64 { return rng.Uint64() }

// validateShard is validate for the sharded path, which also refuses
// OnePass: its single pass is not blocked against an exact normalizer.
func validateShard(ds dataset.Dataset, est DensityEstimator, opts Options, flips bool) (float64, error) {
	if opts.OnePass {
		return 0, errors.New("core: sharded draw does not support OnePass")
	}
	return validate(ds, est, opts, flips)
}

// NormPartials computes the per-block partial normalizer sums
// k_a(block) = Σ_{x ∈ block} max(f(x), floor)^a for the given global block
// indices, returning them parallel to blocks. Each partial accumulates its
// block's points in index order, so a caller that places the partials of
// all blocks into global block order and sums sequentially reproduces
// ExactNorm bit-for-bit (the float additions happen in the same order).
// Block boundaries come from (ds.Len(), opts.BlockSize) exactly as in Draw;
// when opts.FloorDensity is zero the floor defaults from the estimator, so
// identical estimators yield identical floors on every shard.
func NormPartials(ds dataset.Dataset, est DensityEstimator, opts Options, blocks []int) ([]float64, error) {
	floor, err := validateShard(ds, est, opts, false)
	if err != nil {
		return nil, err
	}
	span := opts.Obs.StartSpan("shard/partials")
	defer span.End()
	out := make([]float64, len(blocks))
	err = eachBlock(ds, opts, blocks, func(j int, pts []geom.Point) error {
		var weights []float64
		if opts.WeightMemo != nil {
			weights = getMemoWeights(len(pts))
		} else {
			sc := getCoinScratch(len(pts))
			defer coinScratchPool.Put(sc)
			weights = sc.dens
		}
		out[j] = weighBlock(est, pts, opts.Alpha, floor, weights)
		if opts.WeightMemo != nil {
			opts.WeightMemo.Put(blocks[j], weights)
		}
		span.AddPoints(int64(len(pts)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DrawBlocks runs Draw's coin-flip pass over the given global blocks
// against an externally supplied global normalizer and stream base. Block
// i's coins come from stats.StreamAt(base, i) — the stream Draw would have
// assigned it — and the selection loop is Draw's own (coinBlock), so for
// the norm and base a single-node Draw would use, the returned selections
// are bit-identical to the corresponding slice of that Draw's sample.
// Results are ordered like blocks; weights are 1/P(included) as in Draw.
func DrawBlocks(ds dataset.Dataset, est DensityEstimator, opts Options, norm float64, base uint64, blocks []int) ([]BlockSample, error) {
	floor, err := validateShard(ds, est, opts, true)
	if err != nil {
		return nil, err
	}
	if err := checkNorm(norm); err != nil {
		return nil, err
	}
	span := opts.Obs.StartSpan("shard/draw")
	defer span.End()
	flip := newCoinFlipper(ds, opts, norm)
	out := make([]BlockSample, len(blocks))
	err = eachBlock(ds, opts, blocks, func(j int, pts []geom.Point) error {
		sc := getCoinScratch(len(pts))
		defer coinScratchPool.Put(sc)
		var weights []float64
		if opts.WeightMemo != nil {
			weights = opts.WeightMemo.Take(blocks[j])
		}
		if len(weights) == len(pts) {
			defer putMemoWeights(weights)
		} else {
			weights = sc.dens
			weighBlock(est, pts, opts.Alpha, floor, weights)
		}
		brng := stats.StreamAt(base, blocks[j])
		wps, sat := flip.coinBlock(pts, weights, &brng, sc)
		out[j] = BlockSample{Block: blocks[j], Points: wps, Saturated: sat}
		span.AddPoints(int64(len(pts)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range out {
		total += len(out[i].Points)
	}
	opts.Obs.Counter(obs.CtrSampled).Add(int64(total))
	return out, nil
}
