package cure

import (
	"math"

	"repro/internal/geom"
)

// This file keeps the brute-force clusterer as a test oracle: every
// nearest-neighbour search scans every live pair, with no lower bounds and
// no sorted sweep. It is the merge loop Run and RunPartitioned used before
// their searches were pruned, kept verbatim in behaviour (serial, no
// recorder, no context), so the equivalence tests can demand bit-identical
// clusterings from the pruned code.

type refWork struct {
	members []int32
	mean    geom.Point
	reps    []geom.Point
	nn      int
	nnD     float64
	alive   bool
}

// refDefaults resolves the option defaults the way Run does.
func refDefaults(opts Options) (numReps int, shrink float64, trimMin, finalTrimMin int) {
	numReps = opts.NumReps
	if numReps == 0 {
		numReps = 10
	}
	shrink = opts.Shrink
	if shrink == 0 {
		shrink = 0.3
	}
	trimMin = opts.TrimMinSize
	if opts.TrimAt > 0 && trimMin == 0 {
		trimMin = 3
	}
	finalTrimMin = opts.FinalTrimMinSize
	if opts.FinalTrimAt > 0 && finalTrimMin == 0 {
		finalTrimMin = 3
	}
	return numReps, shrink, trimMin, finalTrimMin
}

// runReference is the brute-force Run. Options must be valid.
func runReference(pts []geom.Point, opts Options) []Cluster {
	numReps, shrink, trimMin, finalTrimMin := refDefaults(opts)
	n := len(pts)
	ws := make([]refWork, n)
	for i, p := range pts {
		ws[i] = refWork{members: []int32{int32(i)}, mean: p.Clone(), reps: []geom.Point{p}, alive: true}
	}
	alive := n
	for i := range ws {
		ws[i].nn, ws[i].nnD = -1, math.Inf(1)
		for j := range ws {
			if i == j {
				continue
			}
			if d := geom.SquaredDistance(ws[i].mean, ws[j].mean); d < ws[i].nnD {
				ws[i].nn, ws[i].nnD = j, d
			}
		}
	}
	trimmed := opts.TrimAt <= 0
	finalTrimmed := opts.FinalTrimAt <= 0
	for alive > opts.K {
		if !trimmed && alive <= opts.TrimAt {
			removed := refTrim(ws, trimMin)
			alive -= removed
			trimmed = true
			if removed > 0 {
				refRepair(ws)
			}
			if alive <= opts.K {
				break
			}
		}
		if trimmed && !finalTrimmed && alive <= opts.FinalTrimAt {
			removed := refTrim(ws, finalTrimMin)
			alive -= removed
			finalTrimmed = true
			if removed > 0 {
				refRepair(ws)
			}
			if alive <= opts.K {
				break
			}
		}
		bi := -1
		bd := math.Inf(1)
		for i := range ws {
			if ws[i].alive && ws[i].nnD < bd {
				bi, bd = i, ws[i].nnD
			}
		}
		if bi < 0 {
			break
		}
		refMerge(pts, ws, bi, ws[bi].nn, numReps, shrink)
		alive--
	}
	return refOut(ws)
}

// runPartitionedReference is the brute-force RunPartitioned for
// partitions > 1. Options must be valid.
func runPartitionedReference(pts []geom.Point, opts Options, partitions, reduction int) []Cluster {
	per := (len(pts) + partitions - 1) / partitions
	var partials []Cluster
	for start := 0; start < len(pts); start += per {
		end := start + per
		if end > len(pts) {
			end = len(pts)
		}
		part := pts[start:end]
		target := len(part) / reduction
		if target < opts.K {
			target = opts.K
		}
		popts := opts
		popts.K = target
		if opts.TrimAt > 0 {
			popts.TrimAt = opts.TrimAt / partitions
			if popts.TrimAt <= target {
				popts.TrimAt = target + 1
			}
		}
		popts.FinalTrimAt = 0
		for _, c := range runReference(part, popts) {
			for j := range c.Members {
				c.Members[j] += start
			}
			partials = append(partials, c)
		}
	}
	return mergePartialsReference(pts, partials, opts)
}

// mergePartialsReference is the brute-force phase-2 merge of
// RunPartitioned, with its own closest-pair guard.
func mergePartialsReference(pts []geom.Point, seeds []Cluster, opts Options) []Cluster {
	numReps, shrink, _, finalMin := refDefaults(opts)
	ws := make([]refWork, len(seeds))
	for i, s := range seeds {
		members := make([]int32, len(s.Members))
		for j, m := range s.Members {
			members[j] = int32(m)
		}
		ws[i] = refWork{members: members, mean: s.Mean.Clone(), reps: s.Reps, alive: true}
	}
	alive := len(ws)
	for i := range ws {
		refRecompute(ws, i)
	}
	finalTrimmed := opts.FinalTrimAt <= 0
	for alive > opts.K {
		if !finalTrimmed && alive <= opts.FinalTrimAt {
			removed := refTrim(ws, finalMin)
			alive -= removed
			finalTrimmed = true
			if removed > 0 {
				refRepair(ws)
			}
			if alive <= opts.K {
				break
			}
		}
		bi, bd := -1, -1.0
		for i := range ws {
			if ws[i].alive && (bi < 0 || ws[i].nnD < bd) {
				bi, bd = i, ws[i].nnD
			}
		}
		if bi < 0 || ws[bi].nn < 0 {
			break
		}
		refMerge(pts, ws, bi, ws[bi].nn, numReps, shrink)
		alive--
	}
	return refOut(ws)
}

func refOut(ws []refWork) []Cluster {
	var out []Cluster
	for i := range ws {
		if !ws[i].alive {
			continue
		}
		c := Cluster{Members: make([]int, len(ws[i].members)), Reps: ws[i].reps, Mean: ws[i].mean}
		for k, m := range ws[i].members {
			c.Members[k] = int(m)
		}
		out = append(out, c)
	}
	return out
}

func refMerge(pts []geom.Point, ws []refWork, i, j int, numReps int, shrink float64) {
	a, b := &ws[i], &ws[j]
	na, nb := float64(len(a.members)), float64(len(b.members))
	mean := make(geom.Point, len(a.mean))
	for k := range mean {
		mean[k] = (a.mean[k]*na + b.mean[k]*nb) / (na + nb)
	}
	a.members = append(a.members, b.members...)
	a.mean = mean
	a.reps = refSelectReps(pts, a.members, mean, numReps, shrink)
	b.alive = false
	b.members = nil
	b.reps = nil

	a.nn, a.nnD = -1, math.Inf(1)
	var stale []int
	for c := range ws {
		if c == i || !ws[c].alive {
			continue
		}
		d := refClusterDist(a.reps, ws[c].reps)
		if d < a.nnD {
			a.nn, a.nnD = c, d
		}
		w := &ws[c]
		if w.nn == i || w.nn == j {
			if d <= w.nnD {
				w.nn, w.nnD = i, d
			} else {
				stale = append(stale, c)
			}
		} else if d < w.nnD {
			w.nn, w.nnD = i, d
		}
	}
	for _, c := range stale {
		refRecompute(ws, c)
	}
}

func refRecompute(ws []refWork, c int) {
	w := &ws[c]
	w.nn, w.nnD = -1, math.Inf(1)
	for o := range ws {
		if o == c || !ws[o].alive {
			continue
		}
		if d := refClusterDist(w.reps, ws[o].reps); d < w.nnD {
			w.nn, w.nnD = o, d
		}
	}
}

func refRepair(ws []refWork) {
	for c := range ws {
		if ws[c].alive {
			refRecompute(ws, c)
		}
	}
}

func refTrim(ws []refWork, minSize int) int {
	removed, kept := 0, 0
	for i := range ws {
		if ws[i].alive && len(ws[i].members) >= minSize {
			kept++
		}
	}
	if kept == 0 {
		return 0
	}
	for i := range ws {
		if ws[i].alive && len(ws[i].members) < minSize {
			ws[i].alive = false
			ws[i].members = nil
			ws[i].reps = nil
			removed++
		}
	}
	return removed
}

func refClusterDist(a, b []geom.Point) float64 {
	best := math.Inf(1)
	for _, p := range a {
		for _, q := range b {
			if d := geom.SquaredDistance(p, q); d < best {
				best = d
			}
		}
	}
	return best
}

func refSelectReps(pts []geom.Point, members []int32, mean geom.Point, numReps int, shrink float64) []geom.Point {
	m := len(members)
	if m <= numReps {
		reps := make([]geom.Point, m)
		for k, idx := range members {
			reps[k] = pts[idx].Lerp(mean, shrink)
		}
		return reps
	}
	chosen := make([]int32, 0, numReps)
	minD := make([]float64, m)
	far, farD := 0, -1.0
	for k, idx := range members {
		if d := geom.SquaredDistance(pts[idx], mean); d > farD {
			far, farD = k, d
		}
	}
	chosen = append(chosen, members[far])
	for k, idx := range members {
		minD[k] = geom.SquaredDistance(pts[idx], pts[chosen[0]])
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
			if d := geom.SquaredDistance(pts[idx], pts[next]); d < minD[k] {
				minD[k] = d
			}
		}
	}
	reps := make([]geom.Point, len(chosen))
	for k, idx := range chosen {
		reps[k] = pts[idx].Lerp(mean, shrink)
	}
	return reps
}
