// Package alid is a from-scratch Go implementation of ALID — Approximate
// Localized Infection Immunization Dynamics (Chu, Wang, Liu, Huang & Pei,
// VLDB 2015) — a scalable detector of dominant clusters in noisy data.
//
// A dominant cluster is a group of objects with maximal inner coherence: a
// dense subgraph of the (implicit) affinity graph whose edge weights are
// a_ij = exp(-k·‖vi−vj‖_p). Unlike k-means or spectral clustering, ALID needs
// no cluster count and leaves background noise unassigned; unlike prior
// affinity-based methods (dominant sets, infection immunization, SEA,
// affinity propagation) it never materializes the O(n²) affinity matrix.
// It iterates three steps: localized infection immunization dynamics (LID)
// on a small subgraph, estimation of a Region of Interest that provably
// bounds the cluster (by the triangle inequality), and candidate retrieval
// via locality-sensitive hashing (CIVS).
//
// Basic use:
//
//	cfg, _ := alid.AutoConfig(points)
//	det, err := alid.NewDetector(points, cfg)
//	clusters, err := det.DetectAll(ctx)
//
// For very large datasets, DetectParallel runs PALID, the MapReduce
// formulation of Section 4.6, across several executor goroutines.
package alid

import (
	"context"
	"fmt"

	"alid/internal/core"
	"alid/internal/matrix"
)

// Cluster is a detected dominant cluster.
type Cluster struct {
	// Members holds the indices of the member points, ascending.
	Members []int
	// Weights holds the probabilistic memberships (simplex weights, sum 1),
	// parallel to Members. Higher weight = more central to the cluster.
	Weights []float64
	// Density is the converged graph density π(x) ∈ (0, 1): the weighted
	// mean affinity inside the cluster.
	Density float64
}

// Size returns the number of member points.
func (c Cluster) Size() int { return len(c.Members) }

// Detector runs ALID over a fixed dataset. A Detector is not safe for
// concurrent use; create one per goroutine (they can share nothing — each
// builds its own LSH index) or use DetectParallel.
type Detector struct {
	inner  *core.Detector
	n      int
	config Config
}

// NewDetector validates cfg, indexes the points with LSH and returns a ready
// detector. The points are flattened ONCE into a contiguous row-major matrix
// at this boundary (every internal layer operates on the flat layout) and
// may be reused by the caller afterwards.
func NewDetector(points [][]float64, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("alid: empty dataset")
	}
	inner, err := core.NewDetector(points, cfg.toCore())
	if err != nil {
		return nil, err
	}
	return &Detector{inner: inner, n: len(points), config: cfg}, nil
}

// NewDetectorFlat is NewDetector for data already in flat row-major form:
// data holds n points of dimension d contiguously (point i is
// data[i*d:(i+1)*d]). The data is copied once into the detector's chunked
// matrix, so the caller may reuse the slice afterwards.
func NewDetectorFlat(data []float64, n, d int, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := matrix.FromFlat(data, n, d, nil)
	if err != nil {
		return nil, fmt.Errorf("alid: %w", err)
	}
	inner, err := core.NewDetectorMatrix(m, cfg.toCore())
	if err != nil {
		return nil, err
	}
	return &Detector{inner: inner, n: n, config: cfg}, nil
}

// Config returns the configuration the detector was built with.
func (d *Detector) Config() Config { return d.config }

// N returns the dataset size.
func (d *Detector) N() int { return d.n }

// DetectAll finds every dominant cluster by the peeling scheme of the paper:
// detect, remove, repeat until all points are consumed; clusters with density
// at or above Config.DensityThreshold are returned, densest first. With
// Config.Parallelism above 1 (or -1, AutoConfig's setting), the connected
// components of the LSH co-bucketing graph peel concurrently, largest first;
// clusters, their order and Stats are bit-identical to the serial peel.
func (d *Detector) DetectAll(ctx context.Context) ([]Cluster, error) {
	cls, err := d.inner.DetectAll(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Cluster, len(cls))
	for i, c := range cls {
		out[i] = fromCore(c)
	}
	return out, nil
}

// DetectFrom runs a single ALID search (Algorithm 2) from the given seed
// point and returns the dense subgraph it converges to, regardless of the
// density threshold. Useful for query-style "find the cluster containing
// this item" use.
func (d *Detector) DetectFrom(ctx context.Context, seed int) (Cluster, error) {
	if seed < 0 || seed >= d.n {
		return Cluster{}, fmt.Errorf("alid: seed %d out of range [0,%d)", seed, d.n)
	}
	c, err := d.inner.DetectFrom(ctx, seed, nil)
	if err != nil {
		return Cluster{}, err
	}
	return fromCore(c), nil
}

// Stats reports detection-cost counters for scalability analysis.
type Stats struct {
	// AffinityComputed is the number of kernel evaluations performed — the
	// measured counterpart of the O(C(a*+δ)n) bound. An a_ij read back from
	// a cached column (a_ji, bit-identical) is not evaluated again, so it
	// counts once. It is the same at any Parallelism: a parallel immunity
	// scan does not count the evaluations its chunks past the first
	// infective candidate spend.
	AffinityComputed int64
	// PeakSubmatrixEntries is the largest local affinity submatrix held at
	// once — the measured counterpart of the O(a*(a*+δ)) space bound.
	PeakSubmatrixEntries int
}

// Stats returns the instrumentation counters accumulated so far.
func (d *Detector) Stats() Stats {
	return Stats{
		AffinityComputed:     d.inner.Oracle().Computed(),
		PeakSubmatrixEntries: d.inner.PeakEntries(),
	}
}

// Labels flattens clusters into a per-point assignment: the index of the
// containing cluster, or -1 for unclustered (noise) points. Overlapping
// memberships resolve to the densest cluster.
func Labels(n int, clusters []Cluster) []int {
	inner := make([]*core.Cluster, len(clusters))
	for i := range clusters {
		inner[i] = &core.Cluster{Members: clusters[i].Members, Density: clusters[i].Density}
	}
	return core.Labels(n, inner)
}

func fromCore(c *core.Cluster) Cluster {
	return Cluster{Members: c.Members, Weights: c.Weights, Density: c.Density}
}
