package alid

import (
	"context"
	"fmt"

	"alid/internal/matrix"
	"alid/internal/palid"
)

// ParallelOptions controls DetectParallel (PALID, Section 4.6).
type ParallelOptions struct {
	// Executors is the number of worker goroutines (the paper's Spark
	// executors). Must be positive.
	Executors int
	// SampleRate is the fraction of each large LSH bucket sampled as initial
	// vertices; 0 means the paper's 0.2.
	SampleRate float64
	// MinBucketSize: only buckets larger than this contribute seeds;
	// 0 means the paper's 5.
	MinBucketSize int
	// Seed drives seed sampling.
	Seed int64
}

// ParallelResult is a completed PALID run.
type ParallelResult struct {
	// Clusters passing the density threshold, densest first.
	Clusters []Cluster
	// Assign maps every point to its cluster index in Clusters, or -1.
	Assign []int
	// Seeds is the number of map tasks executed.
	Seeds int
	// MapMillis and ReduceMillis time the two phases.
	MapMillis, ReduceMillis int64
}

// DetectParallel runs PALID: many independent ALID searches seeded from large
// LSH buckets, mapped across Executors workers, with a reduce step assigning
// each point to its densest covering cluster (Algorithm 3). Unlike
// Detector.DetectAll it does not peel, so results can differ slightly; it
// scales near-linearly with Executors (Table 2).
func DetectParallel(ctx context.Context, points [][]float64, cfg Config, opts ParallelOptions) (*ParallelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("alid: empty dataset")
	}
	m, err := matrix.FromRows(points)
	if err != nil {
		return nil, fmt.Errorf("alid: %w", err)
	}
	return detectParallelMatrix(ctx, m, cfg, opts)
}

// DetectParallelFlat is DetectParallel for data already in flat row-major
// form (see NewDetectorFlat). The data is copied once.
func DetectParallelFlat(ctx context.Context, data []float64, n, d int, cfg Config, opts ParallelOptions) (*ParallelResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := matrix.FromFlat(data, n, d, nil)
	if err != nil {
		return nil, fmt.Errorf("alid: %w", err)
	}
	return detectParallelMatrix(ctx, m, cfg, opts)
}

func detectParallelMatrix(ctx context.Context, m *matrix.Matrix, cfg Config, opts ParallelOptions) (*ParallelResult, error) {
	if opts.Executors <= 0 {
		return nil, fmt.Errorf("alid: Executors must be positive, got %d", opts.Executors)
	}
	res, err := palid.DetectMatrix(ctx, m, cfg.toCore(), palid.Options{
		Executors:     opts.Executors,
		SampleRate:    opts.SampleRate,
		MinBucketSize: opts.MinBucketSize,
		Seed:          opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &ParallelResult{
		Assign:       res.Assign,
		Seeds:        res.Seeds,
		MapMillis:    res.MapTime.Milliseconds(),
		ReduceMillis: res.ReduceTime.Milliseconds(),
	}
	for _, c := range res.Clusters {
		out.Clusters = append(out.Clusters, Cluster{Members: c.Members, Weights: c.Weights, Density: c.Density})
	}
	return out, nil
}
