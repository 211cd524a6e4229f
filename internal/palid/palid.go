// Package palid implements PALID, the parallel ALID of Section 4.6
// (Algorithm 3). The paper runs it as a Spark job; here a par.Pool of
// Executors workers stands in for the executors:
//
//   - the seeds are initial vertices sampled uniformly (20%) from the
//     points of LSH buckets with more than 5 members — large buckets betray
//     the dominant clusters;
//   - the map runs Algorithm 2 independently (no peeling) from every seed,
//     each seed writing its own slot;
//   - the reduce is one serial walk that gives each data item to its
//     densest covering cluster, resolving overlaps exactly as Fig. 5
//     illustrates.
//
// One core.Detector is kept per executor, picked by the pool's worker
// index; the dataset, kernel oracle and LSH index are shared read-only,
// standing in for the paper's MongoDB store.
//
// Task-level fan-out (executors) composes with the intra-detection layer:
// when cfg.Pool is set, every executor's detector additionally parallelizes
// its inner CIVS/LID loops over the shared pool. Executors × pool workers
// goroutines can then be live at once — size the product to the machine.
// Neither axis changes results (executor invariance is tested, and the pool
// is bit-deterministic by construction).
package palid

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/matrix"
	"alid/internal/par"
)

// Options controls the parallel run.
type Options struct {
	// Executors is the worker count (paper: 1–8).
	Executors int
	// SampleRate is the per-bucket seed sampling rate (paper: 0.2).
	SampleRate float64
	// MinBucketSize: buckets must exceed this size to contribute seeds
	// (paper: 5).
	MinBucketSize int
	// Seed drives the sampling.
	Seed int64
}

// DefaultOptions mirrors the paper's PALID setup.
func DefaultOptions(executors int) Options {
	return Options{Executors: executors, SampleRate: 0.2, MinBucketSize: 5, Seed: 1}
}

// Result is a completed PALID run.
type Result struct {
	// Clusters passing the density threshold, densest first. Members are the
	// points the reduce gave to the cluster.
	Clusters []*core.Cluster
	// Assign maps each point to an index into Clusters, or -1.
	Assign []int
	// Seeds is the number of map tasks (sampled initial vertices).
	Seeds int
	// MapTime and ReduceTime time the two phases (Table 2's accounting).
	MapTime, ReduceTime time.Duration
}

// Detect flattens the dataset once and runs PALID over it.
func Detect(ctx context.Context, pts [][]float64, cfg core.Config, opts Options) (*Result, error) {
	m, err := matrix.FromRows(pts)
	if err != nil {
		return nil, fmt.Errorf("palid: %w", err)
	}
	return DetectMatrix(ctx, m, cfg, opts)
}

// DetectMatrix runs PALID over a flat dataset. The first error stops the
// seeds not yet started, and DetectMatrix returns it, with no result, once
// every executor has stopped.
func DetectMatrix(ctx context.Context, m *matrix.Matrix, cfg core.Config, opts Options) (*Result, error) {
	if opts.Executors <= 0 {
		return nil, fmt.Errorf("palid: Executors must be positive, got %d", opts.Executors)
	}
	if opts.SampleRate <= 0 || opts.SampleRate > 1 {
		opts.SampleRate = 0.2
	}
	if opts.MinBucketSize <= 0 {
		opts.MinBucketSize = 5
	}
	// Shared substrate: one LSH index, one detector per executor.
	first, err := core.NewDetectorMatrix(m, cfg)
	if err != nil {
		return nil, err
	}
	cfg = first.Config()
	index := first.Index()
	detectors := make([]*core.Detector, opts.Executors)
	detectors[0] = first
	for w := 1; w < opts.Executors; w++ {
		d, err := core.NewDetectorMatrixWithIndex(m, cfg, index)
		if err != nil {
			return nil, err
		}
		detectors[w] = d
	}
	seeds := sampleSeeds(index, opts)

	// Map: Algorithm 2 from every seed on its worker's detector. found[i]
	// holds seed i's detection if it is a dominant cluster, else nil.
	mapStart := time.Now()
	found := make([]*core.Cluster, len(seeds))
	errs := make([]error, opts.Executors)
	var failed atomic.Bool
	par.New(opts.Executors).Each(len(seeds), func(w, i int) {
		if failed.Load() {
			return
		}
		cl, err := detectors[w].DetectFrom(ctx, seeds[i], nil)
		if err != nil {
			errs[w] = err
			failed.Store(true)
			return
		}
		if cl.Density >= cfg.DensityThreshold && cl.Size() >= cfg.MinClusterSize {
			found[i] = cl
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Assign: make([]int, m.N), Seeds: len(seeds), MapTime: time.Since(mapStart)}

	reduceStart := time.Now()
	res.Clusters = reduce(found, m.N, cfg.MinClusterSize)
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i].Density > res.Clusters[j].Density })
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	for ci, cl := range res.Clusters {
		for _, m := range cl.Members {
			res.Assign[m] = ci
		}
	}
	res.ReduceTime = time.Since(reduceStart)
	return res, nil
}

// reduce walks the detections densest first, ties to the lower seed. A
// detection whose members are mostly (>50%) claimed already is skipped;
// any other claims each of its unclaimed members, so every point goes to
// the densest kept detection that holds it. Many seeds of one dominant
// cluster converge to near-identical supports, and letting each keep a
// share would shatter the cluster into per-seed fragments; partially
// overlapping clusters (the Fig. 5 v4 case) stay separate. found is
// indexed by ascending seed; the clusters of at least minSize claimed
// members come back in that order, their members ascending and without
// weights.
func reduce(found []*core.Cluster, n, minSize int) []*core.Cluster {
	var order []int
	for i, cl := range found {
		if cl != nil {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return found[order[a]].Density > found[order[b]].Density })
	claimed := make([]bool, n)
	owned := make([][]int, len(found))
	for _, i := range order {
		members := found[i].Members
		overlap := 0
		for _, m := range members {
			if claimed[m] {
				overlap++
			}
		}
		if 2*overlap > len(members) {
			continue
		}
		for _, m := range members {
			if !claimed[m] {
				claimed[m] = true
				owned[i] = append(owned[i], m)
			}
		}
	}
	var clusters []*core.Cluster
	for i, members := range owned {
		if len(members) < minSize {
			continue
		}
		cl := *found[i]
		cl.Members, cl.Weights = members, nil
		clusters = append(clusters, &cl)
	}
	return clusters
}

// sampleSeeds draws PALID's seeds, ascending: SampleRate of the points
// appearing in LSH buckets larger than MinBucketSize (Section 4.6: large
// buckets betray the dominant clusters). Sampling the union rather than
// every bucket independently keeps the seed list at ~SampleRate·|candidates|
// even with many tables — per-bucket sampling would re-draw the same
// cluster from every one of its l buckets and blow the seed list up to
// nearly all of it.
func sampleSeeds(index index.Index, opts Options) []int {
	candSet := make(map[int32]bool)
	var cands []int32
	for _, bucket := range index.Buckets(opts.MinBucketSize) {
		for _, id := range bucket {
			if !candSet[id] {
				candSet[id] = true
				cands = append(cands, id)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	want := int(opts.SampleRate * float64(len(cands)))
	if want < 1 && len(cands) > 0 {
		want = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(len(cands))[:want]
	seeds := make([]int, 0, want)
	for _, p := range perm {
		seeds = append(seeds, int(cands[p]))
	}
	sort.Ints(seeds)
	return seeds
}
