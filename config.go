package alid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/matrix"
	"alid/internal/par"
	"alid/internal/vec"
)

// Config holds every user-facing knob of ALID. The zero value is not usable;
// start from DefaultConfig or AutoConfig.
type Config struct {
	// KernelScale is k in the Laplacian kernel a_ij = exp(-k·‖vi−vj‖_p).
	// Larger k sharpens the affinity graph; clusters must have typical
	// intra-cluster affinity above DensityThreshold to be detected.
	KernelScale float64
	// NormOrder is p (p ≥ 1); the paper's experiments use p = 2.
	NormOrder float64

	// LSHProjections (µ), LSHTables (l) and LSHSegment (r) configure the
	// p-stable LSH index used by CIVS. The paper's Fig. 6 setting is
	// µ=40, l=50; smaller values trade recall for speed.
	LSHProjections int
	LSHTables      int
	LSHSegment     float64

	// Delta is δ, the per-iteration cap on CIVS candidates (paper: 800).
	Delta int
	// MaxOuter is C, the ALID iteration cap (paper: 10).
	MaxOuter int
	// MaxLID is T, the LID iteration budget per inner solve.
	MaxLID int
	// Tolerance declares a subgraph immune when no payoff exceeds it.
	Tolerance float64
	// FirstRadius is the ROI radius of the first iteration (paper: 0.4 on
	// normalized features); ≤ 0 means unbounded (δ-nearest only).
	FirstRadius float64
	// DensityThreshold keeps clusters with π(x) at or above it (paper: 0.75).
	// Must lie in [0,1]; 0 takes the paper default.
	DensityThreshold float64
	// MinClusterSize drops smaller supports.
	MinClusterSize int
	// Seed drives LSH construction.
	Seed int64

	// Parallelism is the worker count of the deterministic parallel layer:
	// DetectAll peels independent LSH components on this many goroutines,
	// and CIVS candidate scoring, affinity submatrix fills and LID
	// payoff/immunity scans inside each detection fan out over them too.
	// 0 or 1 runs serially; -1 uses GOMAXPROCS. DefaultConfig leaves it at
	// 0 and AutoConfig sets -1. Detection output and Stats are bit-identical
	// to the serial path at any setting: parallelism only changes speed,
	// never results.
	Parallelism int
}

// DefaultConfig returns the paper's defaults with a unit kernel. Most callers
// should use AutoConfig, which tunes KernelScale and LSHSegment to the data.
func DefaultConfig() Config {
	return Config{
		KernelScale:      1,
		NormOrder:        2,
		LSHProjections:   12,
		LSHTables:        8,
		LSHSegment:       1,
		Delta:            800,
		MaxOuter:         10,
		MaxLID:           2000,
		Tolerance:        1e-7,
		DensityThreshold: 0.75,
		MinClusterSize:   2,
		Seed:             1,
	}
}

// autoQ is the neighbour rank AutoConfig reads the cluster scale from.
const autoQ = 10

// AutoConfig tunes DefaultConfig to the dataset without using any labels: it
// estimates the cluster scale as the median 10th-nearest-neighbor distance
// over a sample (the typical pair distance inside a tight group, not the
// much smaller 1-NN distance) and sets the kernel so such pairs get affinity
// ≈ 0.9 and the LSH segment so they collide with high probability. It sets
// Parallelism to -1 (GOMAXPROCS), as detection output never depends on it.
//
// Cost: each of up to 200 sampled points makes one pass over all n points,
// keeping only its 10 smallest distances (no sort) and abandoning a
// distance part-way once it exceeds the current 10th; the samples fan out
// over GOMAXPROCS goroutines. The result does not depend on GOMAXPROCS. Rows
// of unequal or zero length, and rows NewDetector refuses as not finite (a
// NaN or ±Inf coordinate, or a squared norm that overflows), are rejected
// with an error naming the point.
func AutoConfig(points [][]float64) (Config, error) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if len(points) < 2 {
		return cfg, fmt.Errorf("alid: need at least 2 points to auto-configure, got %d", len(points))
	}
	if _, err := matrix.RowsDim(points); err != nil {
		return cfg, fmt.Errorf("alid: %w", err)
	}
	// A NaN distance has no place in the nearest-neighbour order, and an
	// infinite coordinate makes NaN distances (Inf − Inf).
	for i, p := range points {
		if !matrix.Finite(p) {
			return cfg, fmt.Errorf("alid: point %d is not finite", i)
		}
	}
	rng := rand.New(rand.NewSource(1))
	sample := len(points)
	if sample > 200 {
		sample = 200
	}
	idx := rng.Perm(len(points))[:sample]
	q := autoQ
	if q >= len(points) {
		q = len(points) - 1
	}
	// Each sampled point's q-NN distance is measured against the FULL
	// dataset (O(sample·n·d)), not within the sample: subsampling both sides
	// would dilute small clusters below q members and blend their scale into
	// the noise mode. Every sample writes only its own slot.
	kth := make([]float64, sample)
	par.New(-1).ForChunks(sample, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			kth[s] = math.Sqrt(qthNearestSq(points, idx[s], q))
		}
	})
	var qDists []float64
	for _, d := range kth {
		if d > 0 {
			qDists = append(qDists, d)
		}
	}
	if len(qDists) == 0 {
		// All sampled points identical: any positive scale works.
		cfg.KernelScale = 1
		cfg.LSHSegment = 1
		return cfg, nil
	}
	sort.Float64s(qDists)
	scale := clusterScale(qDists)
	cfg.KernelScale = -math.Log(0.9) / scale
	cfg.LSHSegment = 8 * scale
	return cfg, nil
}

// qthNearestSq returns the q-th smallest squared L2 distance (q ≤ autoQ)
// from points[i] to every other point, counting ties. It keeps the q
// smallest in a sorted array; since sqrt is monotone, the square root of the
// result equals the q-th entry of the sorted vec.L2 distances bit for bit.
// A distance abandoned by SquaredL2Below exceeds the current q-th, so it
// could not have entered the array.
func qthNearestSq(points [][]float64, i, q int) float64 {
	var buf [autoQ]float64
	best := buf[:q]
	for k := range best {
		best[k] = math.Inf(1)
	}
	a := points[i]
	for j, b := range points {
		if j == i {
			continue
		}
		d, ok := vec.SquaredL2Below(a, b, best[q-1])
		if !ok || d >= best[q-1] {
			continue
		}
		k := q - 1
		for ; k > 0 && best[k-1] > d; k-- {
			best[k] = best[k-1]
		}
		best[k] = d
	}
	return best[q-1]
}

// clusterScale picks the cluster-mode scale from sorted 10th-NN distances.
// In noisy data the distribution is bimodal — cluster members sit at the
// cluster scale, background points at the much larger noise scale — and the
// kernel must resolve the SMALLER mode: tuning to the noise mode makes
// background points look mutually affine and fabricates giant noise
// clusters. The split is found as the largest multiplicative gap between
// consecutive sorted values; without a clear gap (clean, unimodal data) the
// lower quartile is a safe stand-in.
func clusterScale(sorted []float64) float64 {
	n := len(sorted)
	lo, hi := n/20, (3*n)/4
	bestRatio, bestIdx := 1.5, -1
	for i := lo; i < hi && i+1 < n; i++ {
		if sorted[i] <= 0 {
			continue
		}
		if r := sorted[i+1] / sorted[i]; r > bestRatio {
			bestRatio, bestIdx = r, i
		}
	}
	if bestIdx >= 0 {
		// Median of the lower mode sorted[0..bestIdx] (bestIdx+1 values):
		// its middle element sits at bestIdx/2. The former bestIdx/2+1 was
		// off by one — on a small sample whose gap follows the very first
		// value (bestIdx = 0) it crossed the gap and returned a NOISE-mode
		// distance, tuning the kernel to exactly the scale the split exists
		// to reject.
		return sorted[bestIdx/2]
	}
	return sorted[n/4]
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.KernelScale > 0) {
		return fmt.Errorf("alid: KernelScale must be positive, got %v", c.KernelScale)
	}
	if !(c.NormOrder >= 1) {
		return fmt.Errorf("alid: NormOrder must be ≥ 1, got %v", c.NormOrder)
	}
	if c.LSHProjections <= 0 || c.LSHTables <= 0 || !(c.LSHSegment > 0) {
		return fmt.Errorf("alid: invalid LSH parameters µ=%d l=%d r=%v", c.LSHProjections, c.LSHTables, c.LSHSegment)
	}
	if c.Delta <= 0 || c.MaxOuter <= 0 || c.MaxLID <= 0 {
		return fmt.Errorf("alid: Delta, MaxOuter and MaxLID must be positive")
	}
	if !(c.Tolerance > 0) {
		return fmt.Errorf("alid: Tolerance must be positive, got %v", c.Tolerance)
	}
	if c.DensityThreshold < 0 || c.DensityThreshold > 1 || math.IsNaN(c.DensityThreshold) {
		// π(x) is a weighted mean of affinities in (0,1), so any threshold
		// outside [0,1] is a configuration mistake: > 1 silently reports
		// nothing, < 0 would report every peeled subgraph.
		return fmt.Errorf("alid: DensityThreshold must be in [0,1], got %v", c.DensityThreshold)
	}
	if c.Parallelism < -1 {
		// −1 means GOMAXPROCS and 0/1 mean serial; anything below −1 has no
		// defined meaning and must not silently reach the worker pool.
		return fmt.Errorf("alid: Parallelism must be ≥ -1 (0/1 = serial, -1 = GOMAXPROCS), got %d", c.Parallelism)
	}
	return nil
}

// toCore converts the public configuration to the internal one.
func (c Config) toCore() core.Config {
	return core.Config{
		Kernel: affinity.Kernel{K: c.KernelScale, P: c.NormOrder},
		LSH: lsh.Config{
			Projections: c.LSHProjections,
			Tables:      c.LSHTables,
			R:           c.LSHSegment,
			Seed:        c.Seed,
		},
		Delta:            c.Delta,
		MaxOuter:         c.MaxOuter,
		MaxLID:           c.MaxLID,
		Tol:              c.Tolerance,
		FirstRadius:      c.FirstRadius,
		DensityThreshold: c.DensityThreshold,
		MinClusterSize:   c.MinClusterSize,
		Pool:             par.New(c.Parallelism),
	}
}
