package cure

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synth"
)

// clusterHash is the FNV-64a digest of a clustering: the cluster count,
// then per cluster its member indices, its representatives' bits and its
// mean's bits. Two clusterings hash equal only if a client could not tell
// them apart.
func clusterHash(cs []Cluster) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(cs)))
	for _, c := range cs {
		put(uint64(len(c.Members)))
		for _, m := range c.Members {
			put(uint64(m))
		}
		put(uint64(len(c.Reps)))
		for _, r := range c.Reps {
			for _, v := range r {
				put(math.Float64bits(v))
			}
		}
		for _, v := range c.Mean {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// diffClusters describes the first bit-level difference between two
// clusterings, or returns "" when they are identical (NaN coordinates
// compare by their bits).
func diffClusters(want, got []Cluster) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	samePoint := func(p, q geom.Point) bool {
		if len(p) != len(q) {
			return false
		}
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
				return false
			}
		}
		return true
	}
	for ci := range want {
		w, g := want[ci], got[ci]
		if len(w.Members) != len(g.Members) {
			return fmt.Sprintf("cluster %d: %d members, want %d", ci, len(g.Members), len(w.Members))
		}
		for k := range w.Members {
			if w.Members[k] != g.Members[k] {
				return fmt.Sprintf("cluster %d member %d: %d, want %d", ci, k, g.Members[k], w.Members[k])
			}
		}
		if !samePoint(w.Mean, g.Mean) {
			return fmt.Sprintf("cluster %d mean %v, want %v", ci, g.Mean, w.Mean)
		}
		if len(w.Reps) != len(g.Reps) {
			return fmt.Sprintf("cluster %d: %d reps, want %d", ci, len(g.Reps), len(w.Reps))
		}
		for k := range w.Reps {
			if !samePoint(w.Reps[k], g.Reps[k]) {
				return fmt.Sprintf("cluster %d rep %d %v, want %v", ci, k, g.Reps[k], w.Reps[k])
			}
		}
	}
	return ""
}

var (
	servedOnce   sync.Once
	servedPoints []geom.Point
	servedErr    error
)

// servedSample draws a 1,000-point sample the way the cold-mine benchmark
// workload does: 100,000 rows of synth.VariedClusters (k=10, d=4, density
// ratio 10, size ratio 20, 30 % noise), a 500-kernel estimator, a = 1,
// b = 1000.
func servedSample(t testing.TB) []geom.Point {
	t.Helper()
	servedOnce.Do(func() {
		rows := synth.VariedClusters(10, 4, 100000, 10, 20, 0.3, stats.NewRNG(7))
		ds := rows.Dataset()
		streams := stats.NewRNG(11).Splits(2)
		est, err := kde.Build(ds, kde.Options{NumKernels: 500}, streams[0])
		if err != nil {
			servedErr = err
			return
		}
		sm, err := core.Draw(ds, est, core.Options{Alpha: 1, TargetSize: 1000}, streams[1])
		if err != nil {
			servedErr = err
			return
		}
		servedPoints = sm.PlainPoints()
	})
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return servedPoints
}

// TestRunGolden pins the exact clusterings Run and RunPartitioned produce
// on a served-shape sample. The expected digests were recorded with the
// brute-force merge loop, before its nearest-neighbour searches were
// pruned; a change to the search, the linkage or the representative code
// that alters any member, representative or mean bit changes them.
func TestRunGolden(t *testing.T) {
	pts := servedSample(t)
	n := len(pts)
	trimmed := func(k, divisor int) Options {
		o := Options{K: k}
		o.TrimAt, o.TrimMinSize, o.FinalTrimAt, o.FinalTrimMinSize = NoiseTrimSizing(n, k, divisor)
		return o
	}
	cases := []struct {
		name        string
		opts        Options
		partitioned bool
		want        uint64
	}{
		{"k10", Options{K: 10}, false, 0x655c6750d15f829a},
		{"k3", Options{K: 3}, false, 0xef1c5161199e7ac4},
		{"k10-trim", trimmed(10, 500), false, 0xe35f0abc32875963},
		{"k3-trim", trimmed(3, 500), false, 0x3c1ef1e38b18e6af},
		{"part-k10", Options{K: 10}, true, 0x24aab6a2364955f0},
		{"part-k10-trim", trimmed(10, 300), true, 0x2130940697ae10dd},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			opts := tc.opts
			opts.Parallelism = workers
			var got []Cluster
			var err error
			if tc.partitioned {
				got, err = RunPartitioned(pts, opts, 3, 4)
			} else {
				got, err = Run(pts, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if h := clusterHash(got); h != tc.want {
				t.Errorf("%s workers=%d: digest %#016x, want %#016x", tc.name, workers, h, tc.want)
			}
		}
	}
}

// equivalenceInputs are point sets chosen to stress the pruned searches:
// ordinary blobs and noise, exact duplicates and integer grids (many equal
// distances, so every tie-break shows), 1-d input (the sweep axis is the
// only axis), and coordinates large enough that squared distances and
// merged means overflow to Inf.
func equivalenceInputs() map[string][]geom.Point {
	rng := stats.NewRNG(21)
	in := map[string][]geom.Point{}
	in["blobs"], _ = blobs(4, 25, rng)
	noise := make([]geom.Point, 90)
	for i := range noise {
		noise[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	in["noise"] = noise
	var dups []geom.Point
	for i := 0; i < 60; i++ {
		v := float64(i % 5)
		dups = append(dups, geom.Point{v, 2 * v})
	}
	in["duplicates"] = dups
	var grid []geom.Point
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			grid = append(grid, geom.Point{float64(x), float64(y)})
		}
	}
	in["grid"] = grid
	var grid3 []geom.Point
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				grid3 = append(grid3, geom.Point{float64(z), float64(y), float64(x)})
			}
		}
	}
	in["grid3"] = grid3
	line := make([]geom.Point, 70)
	for i := range line {
		line[i] = geom.Point{rng.Float64()}
	}
	in["1d"] = line
	var line1 []geom.Point
	for i := 0; i < 50; i++ {
		line1 = append(line1, geom.Point{float64(i % 17)})
	}
	in["1d-int"] = line1
	for _, scale := range []float64{1e150, 1e308} {
		huge := make([]geom.Point, 60)
		for i := range huge {
			p := geom.Point{rng.Float64(), rng.Float64()}
			switch i % 4 {
			case 0:
				p[0] = scale
			case 1:
				p[0], p[1] = -scale, scale
			case 2:
				p[1] = -scale * rng.Float64()
			}
			huge[i] = p
		}
		in[fmt.Sprintf("huge-%g", scale)] = huge
	}
	// Non-finite first coordinates leave the sweep order undefined, so
	// these take the full-scan rows.
	for _, special := range []float64{math.Inf(1), math.NaN()} {
		odd := make([]geom.Point, 40)
		for i := range odd {
			odd[i] = geom.Point{rng.Float64(), rng.Float64()}
			if i%7 == 0 {
				odd[i][0] = special
			}
			if i%11 == 0 {
				odd[i][1] = -special
			}
		}
		in[fmt.Sprintf("special-%g", special)] = odd
	}
	return in
}

// The linkage bound never exceeds the distance it bounds, also when the
// clusters' balls nearly touch (the bound is then a small difference of
// large terms), and it prunes nothing when a mean or radius is not finite.
func TestLinkBoundBelowClusterDist(t *testing.T) {
	rng := stats.NewRNG(31)
	cluster := func(center []float64, spread float64, reps int) work {
		d := len(center)
		flat := make([]float64, 0, reps*d)
		for r := 0; r < reps; r++ {
			for k := range center {
				flat = append(flat, center[k]+spread*(2*rng.Float64()-1))
			}
		}
		return newWork(nil, append([]float64(nil), center...), flat)
	}
	for trial := 0; trial < 20000; trial++ {
		d := 1 + trial%5
		scale := math.Pow(10, float64(trial%17-8)*20)
		ca := make([]float64, d)
		cb := make([]float64, d)
		for k := range ca {
			ca[k] = scale * rng.Float64()
			cb[k] = ca[k] + scale*(2*rng.Float64()-1)
		}
		a := cluster(ca, scale*rng.Float64(), 1+trial%10)
		b := cluster(cb, scale*rng.Float64(), 1+trial%7)
		lb, dist := linkBound(&a, &b), clusterDist(a.reps, b.reps, d)
		if lb > dist {
			t.Fatalf("trial %d: bound %g above distance %g", trial, lb, dist)
		}

		// Touching balls: a representative of each cluster on the segment
		// between the means, at its cluster's radius, so the closest pair
		// is exactly as far apart as the bound before its margin.
		u := make([]float64, d)
		var norm float64
		for k := range u {
			u[k] = 2*rng.Float64() - 1
			norm += u[k] * u[k]
		}
		norm = math.Sqrt(norm)
		ra, rb := scale*rng.Float64(), scale*rng.Float64()
		gap := (ra + rb) * (1 + math.Pow(2, -float64(trial%40)))
		ma, mb := make([]float64, d), make([]float64, d)
		ra1, rb1 := make([]float64, d), make([]float64, d)
		for k := range u {
			u[k] /= norm
			ma[k] = scale * rng.Float64()
			mb[k] = ma[k] + gap*u[k]
			ra1[k] = ma[k] + ra*u[k]
			rb1[k] = mb[k] - rb*u[k]
		}
		ta, tb := newWork(nil, ma, ra1), newWork(nil, mb, rb1)
		if lb, dist := linkBound(&ta, &tb), clusterDist(ta.reps, tb.reps, d); lb > dist {
			t.Fatalf("trial %d (touching): bound %g above distance %g", trial, lb, dist)
		}
	}
	a := newWork(nil, []float64{0, 0}, []float64{0, 1})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := newWork(nil, []float64{10, bad}, []float64{10, 0})
		if lb := linkBound(&a, &b); lb != 0 {
			t.Errorf("mean coordinate %g: bound %g, want 0", bad, lb)
		}
		c := newWork(nil, []float64{10, 0}, []float64{10, bad})
		if lb := linkBound(&a, &c); lb != 0 {
			t.Errorf("representative coordinate %g: bound %g, want 0", bad, lb)
		}
	}
}

// Run and RunPartitioned must reproduce the brute-force references bit for
// bit over every input, representative count, shrink factor, K and trim
// setting.
func TestRunMatchesReference(t *testing.T) {
	for name, pts := range equivalenceInputs() {
		n := len(pts)
		for _, numReps := range []int{1, 3, 10} {
			for _, shrink := range []float64{0.05, 0.3, 1} {
				for _, k := range []int{1, 3, n} {
					for _, trim := range []bool{false, true} {
						opts := Options{K: k, NumReps: numReps, Shrink: shrink, Parallelism: 1 + (numReps+k)%4}
						if trim {
							opts.TrimAt, opts.TrimMinSize, opts.FinalTrimAt, opts.FinalTrimMinSize = NoiseTrimSizing(n, k, 500)
						}
						label := fmt.Sprintf("%s reps=%d shrink=%g k=%d trim=%v", name, numReps, shrink, k, trim)
						got, err := Run(pts, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if d := diffClusters(runReference(pts, opts), got); d != "" {
							t.Fatalf("Run %s: %s", label, d)
						}
						got, err = RunPartitioned(pts, opts, 3, 3)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if d := diffClusters(runPartitionedReference(pts, opts, 3, 3), got); d != "" {
							t.Fatalf("RunPartitioned %s: %s", label, d)
						}
					}
				}
			}
		}
	}
}

// fuzzScales are the coordinate magnitudes the fuzz decoder chooses from:
// unit-ish values, fine ones, and two that overflow squared distances.
var fuzzScales = [4]float64{1, 1e-3, 1e150, 1e306}

// decodeFuzzRun turns fuzz bytes into a point set and options: byte 0 picks
// the dimensionality (1–4) and coordinate scale, byte 1 K, byte 2 NumReps,
// byte 3 the shrink factor and trim flag; every following byte is one
// coordinate (a signed integer times the scale), so equal distances are
// common. At most 64 points are decoded.
func decodeFuzzRun(data []byte) ([]geom.Point, Options, bool) {
	if len(data) < 5 {
		return nil, Options{}, false
	}
	dims := 1 + int(data[0]%4)
	scale := fuzzScales[(data[0]>>2)%4]
	body := data[4:]
	n := len(body) / dims
	if n > 64 {
		n = 64
	}
	if n == 0 {
		return nil, Options{}, false
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = float64(int8(body[i*dims+d])) * scale
		}
		pts[i] = p
	}
	opts := Options{
		K:       1 + int(data[1])%n,
		NumReps: 1 + int(data[2]%10),
		Shrink:  [4]float64{0.05, 0.3, 0.7, 1}[data[3]%4],
	}
	if data[3]&4 != 0 {
		opts.TrimAt, opts.TrimMinSize, opts.FinalTrimAt, opts.FinalTrimMinSize = NoiseTrimSizing(n, opts.K, 500)
	}
	return pts, opts, true
}

func FuzzRunMatchesReference(f *testing.F) {
	f.Add([]byte{0x01, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x00, 1, 0, 5, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3})
	f.Add([]byte{0x0f, 2, 9, 6, 0, 127, 128, 1, 255, 0, 9, 3, 4, 100, 27, 28, 200, 201, 202, 203, 7, 7})
	f.Add([]byte{0x0d, 4, 3, 0, 0, 127, 127, 129, 129, 127, 129, 1, 2, 3, 4, 5, 6})
	grid := []byte{0x01, 5, 9, 1, 0}
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			grid = append(grid, byte(x), byte(y))
		}
	}
	f.Add(grid)
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, opts, ok := decodeFuzzRun(data)
		if !ok {
			return
		}
		got, err := Run(pts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffClusters(runReference(pts, opts), got); d != "" {
			t.Fatalf("Run: %s", d)
		}
		got, err = RunPartitioned(pts, opts, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffClusters(runPartitionedReference(pts, opts, 2, 2), got); d != "" {
			t.Fatalf("RunPartitioned: %s", d)
		}
	})
}

var benchClusters []Cluster

// BenchmarkRunServed clusters the served-shape sample into 10 clusters on
// one worker, reporting the distance evaluations per run.
func BenchmarkRunServed(b *testing.B) {
	pts := servedSample(b)
	rec := obs.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := Run(pts, Options{K: 10, Parallelism: 1, Obs: rec})
		if err != nil {
			b.Fatal(err)
		}
		benchClusters = cs
	}
	b.ReportMetric(float64(rec.Counter(obs.CtrCureDistEvals).Value())/float64(b.N), "dist_evals/op")
}
