package cure

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// RunPartitioned clusters pts with CURE's partitioning speedup (Guha et
// al. §4.3): the input is split into `partitions` equal slices, each is
// pre-clustered independently down to len(partition)/reduction clusters,
// and the union of the partial clusters is then merged to the final K by
// a representative-weighted pass. Because the first phase is quadratic in
// the partition size rather than the sample size, the overall cost drops
// by roughly a factor of `partitions` while the min-representative
// linkage keeps partial clusters compatible across partitions.
//
// The paper's experiments use one partition (§4.2, "we use one
// partition"), which makes Run and RunPartitioned(pts, opts, 1, …)
// equivalent; the partitioned mode exists for the larger samples of the
// runtime experiments.
func RunPartitioned(pts []geom.Point, opts Options, partitions, reduction int) ([]Cluster, error) {
	if partitions <= 0 {
		return nil, errors.New("cure: partitions must be positive")
	}
	if reduction <= 1 {
		return nil, errors.New("cure: reduction must exceed 1")
	}
	if partitions == 1 {
		return Run(pts, opts)
	}
	if len(pts) == 0 {
		return nil, errors.New("cure: no points")
	}
	if opts.K <= 0 {
		return nil, errors.New("cure: K must be positive")
	}

	// Phase 1: pre-cluster each partition down to size/reduction groups.
	// Trim options apply per partition, scaled to the partition size;
	// member indices are remapped from partition-local to global. The
	// partition boundaries depend only on (len(pts), partitions) and each
	// pre-clustering is deterministic, so the partitions run concurrently
	// and their results concatenate in partition order — the output is the
	// same for every worker count.
	per := (len(pts) + partitions - 1) / partitions
	numParts := (len(pts) + per - 1) / per
	partClusters := make([][]Cluster, numParts)
	// Each pre-clustering carries opts.Obs along (the copy below includes
	// it), so partition sub-runs contribute to the same "cure" span and
	// counters; the span handles concurrent re-entry.
	partSpan := opts.Obs.StartSpan("cure/partition")
	err := parallel.DoObs(numParts, opts.Parallelism, opts.Obs, func(pi int) error {
		start := pi * per
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
		// Partition pre-clusterings nest inside the partition workers;
		// keep them serial to avoid oversubscribing.
		popts.Parallelism = 1
		if opts.TrimAt > 0 {
			popts.TrimAt = opts.TrimAt / partitions
			if popts.TrimAt <= target {
				popts.TrimAt = target + 1
			}
		}
		popts.FinalTrimAt = 0 // the final elimination runs in phase 2
		clusters, err := Run(part, popts)
		if err != nil {
			return err
		}
		for _, c := range clusters {
			for j := range c.Members {
				c.Members[j] += start
			}
		}
		partClusters[pi] = clusters
		return nil
	})
	partSpan.End()
	if err != nil {
		return nil, err
	}
	var partials []Cluster
	for _, cs := range partClusters {
		partials = append(partials, cs...)
	}

	// Phase 2: merge the partial clusters under the same linkage,
	// seeding the agglomeration with multi-point clusters.
	return mergePartials(pts, partials, opts)
}

// mergePartials runs the agglomerative merge loop over pre-built clusters
// (same linkage, representative maintenance and merge loop as Run, seeded
// with multi-point clusters instead of singletons). Only the final trim
// applies: the first one already ran inside each partition.
func mergePartials(pts []geom.Point, seeds []Cluster, opts Options) ([]Cluster, error) {
	s, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	s.trimAt = 0
	span := opts.Obs.StartSpan("cure/merge_partials")
	defer span.End()
	cl := newClusterer(pts, len(seeds), len(pts[0]), s, opts)
	for i, sd := range seeds {
		members := make([]int32, len(sd.Members))
		for j, m := range sd.Members {
			members[j] = int32(m)
		}
		var reps []float64
		for _, r := range sd.Reps {
			reps = append(reps, r...)
		}
		cl.seed(i, members, sd.Mean, reps)
	}
	cl.repairNN()
	if err := cl.agglomerate(opts.Ctx); err != nil {
		return nil, err
	}
	return cl.clusters(), nil
}
