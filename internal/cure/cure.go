// Package cure implements the hierarchical agglomerative clustering
// algorithm of §3.1, modelled on CURE (Guha, Rastogi, Shim — SIGMOD 1998):
// every cluster is summarized by a set of well-scattered representative
// points shrunk toward the cluster mean by a shrink factor α, the distance
// between clusters is the minimum distance between their representatives,
// and the closest pair is merged until K clusters remain.
//
// As in the paper's experiments (§4.2), the defaults are α = 0.3 and 10
// representatives, with a single partition. The algorithm is quadratic in
// the number of input points — which is exactly why the paper runs it on a
// small (biased) sample rather than the full dataset, and what Fig. 2
// measures.
//
// The nearest-neighbour searches are exact but pruned. The initial
// singleton table sweeps the points in order of their first coordinate and
// stops a row once that coordinate alone is farther than the row's best.
// Every cluster keeps the radius of the ball around its mean that holds its
// representatives, so ‖mean_a − mean_b‖ − rad_a − rad_b bounds the linkage
// from below, and the merge loop skips every pair the bound rules out
// before it touches a representative. The clusterings are bit-identical to
// the unpruned search. Separated clusters prune well; the merge loop still
// visits every live cluster once per merge, and when clusters overlap (the
// bound is zero) every pair is evaluated, as before.
//
// A light-weight outlier-elimination phase (as in CURE §4.1) is available
// through TrimAt/TrimMinSize: when the number of live clusters first drops
// to TrimAt, clusters with fewer than TrimMinSize members are discarded as
// noise. Samples drawn with a ≥ 0 bias contain little noise and rarely
// need it; uniform samples of noisy datasets do.
package cure

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configure one clustering run.
type Options struct {
	// K is the number of clusters to produce. Required.
	K int

	// NumReps is the number of representative points per cluster
	// (default 10, the paper's setting).
	NumReps int

	// Shrink is the shrink factor α toward the cluster mean
	// (default 0.3, the paper's setting).
	Shrink float64

	// TrimAt, when positive, triggers one outlier-elimination pass when
	// the live cluster count first reaches it: clusters with fewer than
	// TrimMinSize members are dropped. CURE's first elimination phase
	// fires when the cluster count reaches about one third of the input
	// points, removing 1-2 point clusters — isolated noise — before they
	// can chain distinct clusters together.
	TrimAt int

	// TrimMinSize is the member-count threshold for the trim pass
	// (default 3 when TrimAt is set).
	TrimMinSize int

	// FinalTrimAt/FinalTrimMinSize optionally run a second, more
	// aggressive elimination near the end of the merge sequence,
	// mirroring CURE's second phase (small groups of residual noise).
	FinalTrimAt      int
	FinalTrimMinSize int

	// Parallelism bounds the workers used for the row-independent
	// distance phases (the initial nearest-neighbour sweep, post-trim
	// repairs, and partition pre-clustering in RunPartitioned): 0 uses
	// runtime.GOMAXPROCS(0), 1 is the serial reference path. Each parallel
	// unit writes only its own slot, so the clustering is identical for
	// every setting. The merge sequence itself is inherently serial and
	// unaffected.
	Parallelism int

	// Obs, when non-nil, records spans ("cure", "cure/init_nn") and the
	// merge/distance/trim counters. Recording never influences the
	// clustering: outputs are bit-identical with Obs nil or set.
	Obs *obs.Recorder

	// Ctx, when non-nil, cancels the clustering: the merge loop checks it
	// once per merge (and the initial NN table once per row block) and a
	// done context aborts with parallel.ErrCanceled wrapping the context's
	// error. A run that completes is unaffected.
	Ctx context.Context
}

// NoiseTrimSizing returns the two-phase outlier-elimination thresholds for
// clustering an n-point sample that carries background noise into k
// clusters: the first trim fires when n/3 clusters remain and drops
// clusters under 3 members (CURE §4.1's "one third" heuristic), the final
// trim fires at 5k clusters and drops clusters under max(3, n/divisor)
// members. divisor controls the final trim's aggression — single-partition
// runs use 500, partitioned runs 300 (partitions leave more residue).
// Shared by the public API and the serving layer so both size NoiseTrim
// identically.
func NoiseTrimSizing(n, k, divisor int) (trimAt, trimMinSize, finalTrimAt, finalTrimMinSize int) {
	trimAt = n / 3
	trimMinSize = 3
	finalTrimAt = 5 * k
	finalTrimMinSize = n / divisor
	if finalTrimMinSize < 3 {
		finalTrimMinSize = 3
	}
	return trimAt, trimMinSize, finalTrimAt, finalTrimMinSize
}

// Cluster is one output cluster.
type Cluster struct {
	// Members holds indices into the input point slice.
	Members []int
	// Reps are the shrunk representative points summarizing the
	// cluster's shape.
	Reps []geom.Point
	// Mean is the centroid of the members.
	Mean geom.Point
}

// Size returns the number of members.
func (c *Cluster) Size() int { return len(c.Members) }

// work is one cluster of the merge loop. The mean and the representatives
// are flat coordinate runs of the input's dimensionality.
type work struct {
	members []int32
	mean    []float64
	reps    []float64 // representatives, one after another
	rad     float64   // largest mean-to-representative distance (NaN/Inf propagate)
	nn      int       // index of nearest live cluster
	nnD     float64   // squared min-rep distance to nn
}

// newWork is the only constructor of a live cluster: it sets the radius
// the linkage bound relies on, and an empty nearest-neighbour cache.
func newWork(members []int32, mean, reps []float64) work {
	d := len(mean)
	var rad float64
	for k := 0; k < len(reps); k += d {
		// math.Max keeps a NaN, so a cluster with a NaN radius never prunes.
		rad = math.Max(rad, math.Sqrt(sqDist(mean, reps[k:k+d])))
	}
	return work{members: members, mean: mean, reps: reps, rad: rad, nn: -1, nnD: math.Inf(1)}
}

// settings are Options with defaults resolved and values checked.
type settings struct {
	numReps                int
	shrink                 float64
	trimMin, finalTrimMin  int
	trimAt, finalTrimAt, k int
}

// resolve checks opts and fills in the defaults.
func resolve(opts Options) (settings, error) {
	if opts.K <= 0 {
		return settings{}, errors.New("cure: K must be positive")
	}
	s := settings{numReps: opts.NumReps, shrink: opts.Shrink, trimMin: opts.TrimMinSize, finalTrimMin: opts.FinalTrimMinSize,
		trimAt: opts.TrimAt, finalTrimAt: opts.FinalTrimAt, k: opts.K}
	if s.numReps == 0 {
		s.numReps = 10
	}
	if s.numReps < 1 {
		return settings{}, errors.New("cure: NumReps must be positive")
	}
	if s.shrink == 0 {
		s.shrink = 0.3
	}
	if s.shrink < 0 || s.shrink > 1 {
		return settings{}, errors.New("cure: Shrink must be in [0,1]")
	}
	if s.trimAt > 0 && s.trimMin == 0 {
		s.trimMin = 3
	}
	if s.finalTrimAt > 0 && s.finalTrimMin == 0 {
		s.finalTrimMin = 3
	}
	return s, nil
}

// dimsOf returns the common dimensionality of pts.
func dimsOf(pts []geom.Point) (int, error) {
	d := len(pts[0])
	if d == 0 {
		return 0, errors.New("cure: points have no coordinates")
	}
	for _, p := range pts {
		if len(p) != d {
			return 0, fmt.Errorf("cure: dimension mismatch %d vs %d", len(p), d)
		}
	}
	return d, nil
}

// clusterer is the state of one merge loop.
type clusterer struct {
	pts   []geom.Point
	ws    []work
	means []float64 // cluster i's mean is means[i*d:(i+1)*d]
	live  []int32   // indices of the live clusters, ascending
	d     int
	s     settings
	par   int
	rec   *obs.Recorder
	cDist *obs.Counter
}

func newClusterer(pts []geom.Point, n, d int, s settings, opts Options) *clusterer {
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	return &clusterer{pts: pts, ws: make([]work, n), means: make([]float64, n*d), live: live, d: d, s: s,
		par: opts.Parallelism, rec: opts.Obs, cDist: opts.Obs.Counter(obs.CtrCureDistEvals)}
}

// seed makes cluster i from its members, a copy of mean (into i's slot of
// the means slab, which merges then update in place) and its flat
// representatives.
func (cl *clusterer) seed(i int, members []int32, mean, reps []float64) {
	slot := cl.means[i*cl.d : (i+1)*cl.d : (i+1)*cl.d]
	copy(slot, mean)
	cl.ws[i] = newWork(members, slot, reps)
}

// Run clusters pts into opts.K clusters. It returns an error for invalid
// options or empty input. When K ≥ len(pts), each point forms its own
// cluster.
func Run(pts []geom.Point, opts Options) ([]Cluster, error) {
	if len(pts) == 0 {
		return nil, errors.New("cure: no points")
	}
	s, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	d, err := dimsOf(pts)
	if err != nil {
		return nil, err
	}

	rec := opts.Obs
	span := rec.StartSpan("cure")
	defer span.End()

	n := len(pts)
	span.AddPoints(int64(n))
	cl := newClusterer(pts, n, d, s, opts)
	members := make([]int32, n)
	for i, p := range pts {
		members[i] = int32(i)
		cl.seed(i, members[i:i+1:i+1], p, p)
	}

	initSpan := rec.StartSpan("cure/init_nn")
	err = cl.initNN(opts.Ctx)
	initSpan.End()
	if err != nil {
		return nil, err
	}
	if err := cl.agglomerate(opts.Ctx); err != nil {
		return nil, err
	}
	return cl.clusters(), nil
}

// initNN fills the singleton nearest-neighbour table with a sweep over the
// points ordered by their first coordinate (ties by index). Each row walks
// outward from its own position, nearer side first, and stops once the
// first-coordinate gap alone exceeds its best distance: a squared distance
// is never below its first term, since adding non-negative terms never
// rounds down. Equal distances resolve to the lowest index, so the table is
// the one a full scan in index order builds. A first coordinate that is
// NaN or infinite anywhere leaves the order undefined; the rows then scan
// every point. Rows write only their own cluster, so row blocks run
// concurrently; each row counts the distances it evaluated.
func (cl *clusterer) initNN(ctx context.Context) error {
	n := len(cl.ws)
	xs := make([]float64, n) // first coordinates, in sweep order
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sorted := true
	for _, w := range cl.ws {
		if x := w.mean[0]; math.IsNaN(x) || math.IsInf(x, 0) {
			sorted = false
			break
		}
	}
	if sorted {
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(cl.ws[a].mean[0], cl.ws[b].mean[0]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	pos := make([]int32, n)
	for k, i := range order {
		xs[k] = cl.ws[i].mean[0]
		pos[i] = int32(k)
	}
	const rowsPerTask = 64
	tasks := (n + rowsPerTask - 1) / rowsPerTask
	return parallel.DoCtxObs(ctx, tasks, cl.par, cl.rec, func(t int) error {
		var evals int64
		for i := t * rowsPerTask; i < n && i < (t+1)*rowsPerTask; i++ {
			evals += cl.sweepRow(i, int(pos[i]), order, xs, sorted)
		}
		cl.cDist.Add(evals)
		return nil
	})
}

// sweepRow finds row i's nearest neighbour from sweep position p and
// returns the number of distances it evaluated. Without a sorted order it
// visits every other point.
func (cl *clusterer) sweepRow(i, p int, order []int32, xs []float64, sorted bool) int64 {
	ws := cl.ws
	w := &ws[i]
	x := xs[p]
	var evals int64
	lo, hi := p-1, p+1
	for lo >= 0 || hi < len(order) {
		var j int
		var dx float64
		if hi >= len(order) || (lo >= 0 && x-xs[lo] <= xs[hi]-x) {
			j, dx = int(order[lo]), x-xs[lo]
			lo--
		} else {
			j, dx = int(order[hi]), xs[hi]-x
			hi++
		}
		if sorted && dx*dx > w.nnD {
			break // the other side is no nearer on the sweep axis
		}
		evals++
		if d := sqDist(w.mean, ws[j].mean); d < w.nnD || (d == w.nnD && j < w.nn) {
			w.nn, w.nnD = j, d
		}
	}
	return evals
}

// agglomerate merges the closest live pair until s.k clusters remain,
// running the configured trim phases on the way. Clusters whose nearest
// neighbour is at +Inf (or that have none) are never merged.
func (cl *clusterer) agglomerate(ctx context.Context) error {
	ws, s := cl.ws, cl.s
	cMerges := cl.rec.Counter(obs.CtrCureMerges)
	cTrim := cl.rec.Counter(obs.CtrCureTrimmed)
	// trimPhase runs one elimination and repairs the neighbour caches.
	trimPhase := func(minSize int) {
		removed := cl.trim(minSize)
		cTrim.Add(int64(removed))
		if removed > 0 {
			cl.repairNN()
		}
	}
	trimmed := s.trimAt <= 0 // no trim requested ⇒ treat as done
	finalTrimmed := s.finalTrimAt <= 0
	for len(cl.live) > s.k {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w: %w", parallel.ErrCanceled, cerr)
			}
		}
		if !trimmed && len(cl.live) <= s.trimAt {
			trimPhase(s.trimMin)
			trimmed = true
			if len(cl.live) <= s.k {
				break
			}
		}
		if trimmed && !finalTrimmed && len(cl.live) <= s.finalTrimAt {
			trimPhase(s.finalTrimMin)
			finalTrimmed = true
			if len(cl.live) <= s.k {
				break
			}
		}

		// Closest live pair via cached nearest neighbours.
		bi := -1
		bd := math.Inf(1)
		for _, i := range cl.live {
			if ws[i].nnD < bd {
				bi, bd = int(i), ws[i].nnD
			}
		}
		if bi < 0 {
			break // only isolated clusters remain
		}
		cl.merge(bi, ws[bi].nn)
		cMerges.Inc()
	}
	return nil
}

// clusters returns the live clusters in index order.
func (cl *clusterer) clusters() []Cluster {
	out := make([]Cluster, 0, len(cl.live))
	d := cl.d
	for _, i := range cl.live {
		w := &cl.ws[i]
		c := Cluster{
			Members: make([]int, len(w.members)),
			Reps:    make([]geom.Point, len(w.reps)/d),
			Mean:    w.mean,
		}
		for k, m := range w.members {
			c.Members[k] = int(m)
		}
		for k := range c.Reps {
			c.Reps[k] = w.reps[k*d : (k+1)*d : (k+1)*d]
		}
		out = append(out, c)
	}
	return out
}

// merge folds cluster j into cluster i, rebuilds i's summary, and restores
// the nearest-neighbour invariants. The distance counter tallies the
// representative pairs evaluated, flushed once per merge.
func (cl *clusterer) merge(i, j int) {
	ws := cl.ws
	a, b := &ws[i], &ws[j]
	na, nb := float64(len(a.members)), float64(len(b.members))
	mean := a.mean // i's slot of the means slab
	for k := range mean {
		mean[k] = (mean[k]*na + b.mean[k]*nb) / (na + nb)
	}
	members := append(a.members, b.members...)
	*a = newWork(members, mean, selectReps(cl.pts, members, mean, cl.s.numReps, cl.s.shrink))
	b.members = nil
	b.reps = nil
	k, _ := slices.BinarySearch(cl.live, int32(j))
	cl.live = slices.Delete(cl.live, k, k+1)

	// One scan restores all invariants: recompute i's NN, opportunistically
	// improve others' NN with their distance to the merged cluster, and
	// fully recompute any cluster whose NN pointed at i or j. A cluster
	// whose linkage bound exceeds both i's running best and its own cached
	// distance would change neither, so it is skipped; if it pointed at i
	// or j its true distance exceeds its cache, which makes it stale. The
	// skip is strict: at an equal distance the merged cluster stays its
	// neighbour.
	var stale []int
	var evals int64
	for _, c32 := range cl.live {
		c := int(c32)
		if c == i {
			continue
		}
		w := &ws[c]
		if lb := linkBound(a, w); lb > a.nnD && lb > w.nnD {
			if w.nn == i || w.nn == j {
				stale = append(stale, c)
			}
			continue
		}
		evals += cl.pairs(a, w)
		d := clusterDist(a.reps, w.reps, cl.d)
		if d < a.nnD {
			a.nn, a.nnD = c, d
		}
		if w.nn == i || w.nn == j {
			if d <= w.nnD {
				// The merged cluster is at least as close as the old
				// target was: it remains the nearest neighbour.
				w.nn, w.nnD = i, d
			} else {
				stale = append(stale, c)
			}
		} else if d < w.nnD {
			w.nn, w.nnD = i, d
		}
	}
	cl.cDist.Add(evals)
	for _, c := range stale {
		cl.recomputeNN(c)
	}
}

// recomputeNN rebuilds the cached nearest neighbour of cluster c exactly,
// skipping every candidate whose linkage bound exceeds the best distance
// found so far. The row's tally is flushed with one atomic add (safe under
// repairNN's concurrent rows).
func (cl *clusterer) recomputeNN(c int) {
	ws := cl.ws
	w := &ws[c]
	w.nn, w.nnD = -1, math.Inf(1)
	var evals int64
	for _, o32 := range cl.live {
		o := int(o32)
		if o == c || linkBound(w, &ws[o]) > w.nnD {
			continue
		}
		evals += cl.pairs(w, &ws[o])
		if d := clusterDist(w.reps, ws[o].reps, cl.d); d < w.nnD {
			w.nn, w.nnD = o, d
		}
	}
	cl.cDist.Add(evals)
}

// repairNN recomputes every cached neighbour after a trim pass removed
// clusters. Each recomputation writes only its own cluster's cache and
// reads state that is frozen during the repair, so the rows parallelize.
func (cl *clusterer) repairNN() {
	parallel.DoObs(len(cl.live), cl.par, cl.rec, func(k int) error {
		cl.recomputeNN(int(cl.live[k]))
		return nil
	})
}

// trim kills live clusters with fewer than minSize members and returns how
// many were removed, never removing all clusters.
func (cl *clusterer) trim(minSize int) int {
	kept := cl.live[:0:0]
	for _, i := range cl.live {
		if len(cl.ws[i].members) >= minSize {
			kept = append(kept, i)
		}
	}
	if len(kept) == 0 {
		return 0
	}
	removed := len(cl.live) - len(kept)
	for _, i := range cl.live {
		if w := &cl.ws[i]; len(w.members) < minSize {
			w.members = nil
			w.reps = nil
		}
	}
	cl.live = kept
	return removed
}

// pairs is the number of representative pairs clusterDist evaluates.
func (cl *clusterer) pairs(a, b *work) int64 {
	return int64(len(a.reps)/cl.d) * int64(len(b.reps)/cl.d)
}

// minPrunable is the smallest squared bound linkBound reports. Below it
// subnormal rounding could exceed the bound's relative margin.
const minPrunable = 1e-280

// linkBound returns a lower bound on clusterDist(a.reps, b.reps): every
// representative lies within rad of its cluster's mean, so no pair is
// closer than ‖mean_a − mean_b‖ − rad_a − rad_b. The bound is shrunk by a
// relative 1e-9 of the terms, far above their rounding error, so it never
// exceeds the computed distance. It fails closed: a NaN, infinite or
// non-positive bound, or one in the subnormal range, returns 0, which
// prunes nothing.
func linkBound(a, b *work) float64 {
	dm := math.Sqrt(sqDist(a.mean, b.mean))
	r := a.rad + b.rad
	lb := dm - r - 1e-9*(dm+r)
	lb2 := lb * lb
	if !(lb > 0 && lb2 >= minPrunable && lb2 <= math.MaxFloat64) {
		return 0
	}
	return lb2
}

// sqDist is the squared Euclidean distance of two coordinate runs of equal
// length, accumulated in coordinate order like geom.SquaredDistance.
func sqDist(p, q []float64) float64 {
	q = q[:len(p)]
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// clusterDist is the squared min distance over representative pairs of
// two flat representative runs of dimensionality d.
func clusterDist(a, b []float64, d int) float64 {
	best := math.Inf(1)
	for i := 0; i < len(a); i += d {
		p := a[i : i+d]
		for j := 0; j < len(b); j += d {
			if s := sqDist(p, b[j:j+d]); s < best {
				best = s
			}
		}
	}
	return best
}

// selectReps picks up to numReps well-scattered members (farthest-point
// traversal seeded from the point farthest from the mean), shrinks them
// toward the mean by the shrink factor, and returns them as one flat run.
func selectReps(pts []geom.Point, members []int32, mean []float64, numReps int, shrink float64) []float64 {
	m := len(members)
	if m <= numReps {
		reps := make([]float64, 0, m*len(mean))
		for _, idx := range members {
			reps = appendLerp(reps, pts[idx], mean, shrink)
		}
		return reps
	}
	chosen := make([]int32, 0, numReps)
	minD := make([]float64, m) // min squared distance to any chosen rep
	// Seed: farthest member from the mean.
	far, farD := 0, -1.0
	for k, idx := range members {
		if d := sqDist(pts[idx], mean); d > farD {
			far, farD = k, d
		}
	}
	chosen = append(chosen, members[far])
	for k, idx := range members {
		minD[k] = sqDist(pts[idx], pts[chosen[0]])
	}
	for len(chosen) < numReps {
		far, farD = -1, -1.0
		for k := range members {
			if minD[k] > farD {
				far, farD = k, minD[k]
			}
		}
		next := members[far]
		chosen = append(chosen, next)
		for k, idx := range members {
			if d := sqDist(pts[idx], pts[next]); d < minD[k] {
				minD[k] = d
			}
		}
	}
	reps := make([]float64, 0, len(chosen)*len(mean))
	for _, idx := range chosen {
		reps = appendLerp(reps, pts[idx], mean, shrink)
	}
	return reps
}

// appendLerp appends p moved toward q by t, computed like geom.Point.Lerp.
func appendLerp(dst, p, q []float64, t float64) []float64 {
	for i := range p {
		dst = append(dst, p[i]+t*(q[i]-p[i]))
	}
	return dst
}

// Assign labels every point in pts with the index of the cluster owning
// the nearest representative — the final labelling phase of CURE, used to
// extend a sample clustering to the full dataset. Returns one label per
// point.
func Assign(pts []geom.Point, clusters []Cluster) []int {
	if len(clusters) == 0 || len(pts) == 0 {
		return nil
	}
	var reps []geom.Point
	var owner []int
	for ci := range clusters {
		for _, r := range clusters[ci].Reps {
			reps = append(reps, r)
			owner = append(owner, ci)
		}
	}
	tree := kdtree.Build(reps)
	labels := make([]int, len(pts))
	for i, p := range pts {
		ri, _ := tree.Nearest(p)
		labels[i] = owner[ri]
	}
	return labels
}
