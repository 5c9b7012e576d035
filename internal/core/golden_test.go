package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// sampleHash is the FNV-64a digest of a sample's bytes: every coordinate
// and weight as IEEE bits, then the normalizer's bits and the saturation
// count. Two samples hash equal only if a client could not tell them apart.
func sampleHash(s *Sample) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, wp := range s.Points {
		for _, c := range wp.P {
			put(math.Float64bits(c))
		}
		put(math.Float64bits(wp.W))
	}
	put(math.Float64bits(s.Norm))
	put(uint64(s.Saturated))
	return h.Sum64()
}

// shardMerge runs a sharded draw the way the coordinator does: partials
// from two shards summed in global block order, one stream base, per-block
// coin passes concatenated in block order.
func shardMerge(t *testing.T, ds dataset.Dataset, est DensityEstimator, opts Options, seed uint64) *Sample {
	t.Helper()
	numBlocks := parallel.NumBlocks(ds.Len(), parallel.BlockSize(opts.BlockSize))
	shards := partition(numBlocks, 2)
	partials := make([]float64, numBlocks)
	for _, blocks := range shards {
		ps, err := NormPartials(ds, est, opts, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			partials[b] = ps[i]
		}
	}
	var norm float64
	for _, p := range partials {
		norm += p
	}
	base := DrawStreamBase(stats.NewRNG(seed))
	perBlock := make([]BlockSample, numBlocks)
	for _, blocks := range shards {
		bs, err := DrawBlocks(ds, est, opts, norm, base, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			perBlock[b.Block] = b
		}
	}
	out := &Sample{Norm: norm}
	for _, b := range perBlock {
		out.Points = append(out.Points, b.Points...)
		out.Saturated += b.Saturated
	}
	return out
}

// TestDrawGolden pins the exact bytes every served sampling path produces
// on fixed seeds. The expected digests were recorded before the sampler's
// block loops were unified; a refactor of the scan, weight or coin code
// that changes any of them changes what clients receive.
func TestDrawGolden(t *testing.T) {
	setup := stats.NewRNG(2024)
	mem, _ := twoBlobs(3000, 2000, setup)
	est := buildKDE(t, mem, 150, setup)
	path := filepath.Join(t.TempDir(), "golden.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fx := newIncrementalFixture(t, 3000, 400, 120, 300, 1.0, 2025)

	draw := func(ds dataset.Dataset, opts Options) func() *Sample {
		return func() *Sample {
			s, err := Draw(ds, est, opts, stats.NewRNG(17))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	opts := func(alpha float64) Options {
		return Options{Alpha: alpha, TargetSize: 400, BlockSize: 512, Parallelism: 4}
	}
	onePass := opts(1)
	onePass.OnePass = true
	memoOpts := opts(0.5)
	memoOpts.WeightMemo = &mapMemo{m: map[int][]float64{}}

	cases := []struct {
		name string
		run  func() *Sample
		want uint64
	}{
		{"draw/a=1", draw(mem, opts(1)), 0xafb9d640ab55ad96},
		{"draw/a=-0.5", draw(mem, opts(-0.5)), 0x4842a74bd88d80f0},
		{"draw/a=0", draw(mem, opts(0)), 0x4943db85f86a2a76},
		{"draw/a=1/file", draw(fb, opts(1)), 0xafb9d640ab55ad96},
		{"draw/onepass", draw(mem, onePass), 0x90d143e2fe8693d1},
		{"extend", func() *Sample {
			s, _ := fx.extend(t, 1.0, 300, 4, 23)
			return s
		}, 0x6fe4c06bc5a2ca45},
		{"shard", func() *Sample { return shardMerge(t, mem, est, opts(0.5), 29) }, 0x5266e1ee0916cb2d},
		{"shard/file", func() *Sample { return shardMerge(t, fb, est, opts(0.5), 29) }, 0x5266e1ee0916cb2d},
		{"shard/memo", func() *Sample { return shardMerge(t, mem, est, memoOpts, 29) }, 0x5266e1ee0916cb2d},
	}
	for _, tc := range cases {
		if got := sampleHash(tc.run()); got != tc.want {
			t.Errorf("%s: sample hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
