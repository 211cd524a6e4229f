// Package dataset generates the synthetic workloads of the paper's evaluation
// (Section 5) and faithful stand-ins for its proprietary real-world data:
//
//   - Mixture: the Section 5.2 synthetic sets — 20 multivariate Gaussians in
//     100 dimensions with diagonal covariances in [0,10], partially
//     overlapping means, surrounded by uniform noise; per-cluster size a*
//     follows one of the three regimes of Table 1 (ωn, n^η, capped P).
//   - NARTLike: LDA-style 350-dim topic vectors, 13 hot-event clusters buried
//     in diffuse-topic noise documents (stand-in for the crawled news data).
//   - NDILike: GIST-style 256-dim image descriptors with planted
//     near-duplicate clusters (stand-in for the crawled image data).
//   - SIFTLike: 128-dim non-negative L2-normalized descriptors with planted
//     visual-word clusters (stand-in for SIFT-50M).
//
// Every generator is deterministic given its seed and returns ground-truth
// labels (-1 = background noise) plus a suggested kernel scale computed from
// the planted intra-cluster distances, mirroring the per-dataset kernel
// tuning the paper performs.
package dataset

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"alid/internal/vec"
)

// Dataset is a labeled point set.
type Dataset struct {
	// Name identifies the generator and parameters.
	Name string
	// Points holds the feature vectors.
	Points [][]float64
	// Labels holds ground truth: cluster id ≥ 0 or -1 for noise.
	Labels []int
	// NumClusters is the number of planted dominant clusters.
	NumClusters int
	// SuggestedK is a kernel scale making typical intra-cluster affinities
	// ≈ 0.85, so cluster densities clear the paper's 0.75 threshold.
	SuggestedK float64
	// SuggestedLSHR is a segment length under which same-cluster points
	// collide with high probability.
	SuggestedLSHR float64
}

// N returns the dataset size.
func (d *Dataset) N() int { return len(d.Points) }

// NoiseCount returns the number of background-noise points.
func (d *Dataset) NoiseCount() int {
	n := 0
	for _, l := range d.Labels {
		if l < 0 {
			n++
		}
	}
	return n
}

// WithNoise returns a copy of d with extra uniform noise points appended so
// the result has the requested noise degree (#noise/#ground-truth ≥ 0),
// the knob of the Fig. 11 noise-resistance experiments. The noise is drawn
// from the bounding box of the existing points.
func (d *Dataset) WithNoise(noiseDegree float64, seed int64) *Dataset {
	gt := d.N() - d.NoiseCount()
	wantNoise := int(math.Round(noiseDegree * float64(gt)))
	haveNoise := d.NoiseCount()
	out := &Dataset{
		Name:          fmt.Sprintf("%s-nd%.1f", d.Name, noiseDegree),
		Points:        append([][]float64{}, d.Points...),
		Labels:        append([]int{}, d.Labels...),
		NumClusters:   d.NumClusters,
		SuggestedK:    d.SuggestedK,
		SuggestedLSHR: d.SuggestedLSHR,
	}
	if wantNoise <= haveNoise {
		// Remove surplus noise points (keep the first ones deterministically).
		keep := out.Points[:0]
		keepL := out.Labels[:0]
		removed := 0
		toRemove := haveNoise - wantNoise
		for i, l := range d.Labels {
			if l < 0 && removed < toRemove {
				removed++
				continue
			}
			keep = append(keep, d.Points[i])
			keepL = append(keepL, l)
		}
		out.Points, out.Labels = keep, keepL
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	dim := len(d.Points[0])
	lo, hi := boundingBox(d.Points)
	for i := 0; i < wantNoise-haveNoise; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		out.Points = append(out.Points, p)
		out.Labels = append(out.Labels, -1)
	}
	return out
}

func boundingBox(pts [][]float64) (lo, hi []float64) {
	dim := len(pts[0])
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	copy(lo, pts[0])
	copy(hi, pts[0])
	for _, p := range pts {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// tuneScales fills SuggestedK and SuggestedLSHR from sampled intra-cluster
// distances: k = -ln(0.85)/median intra distance, r = 8× median intra
// distance (wide enough that co-cluster points collide under ~10 concatenated
// projections). The 0.85 target puts planted-cluster densities comfortably
// above the paper's 0.75 selection threshold. Clusters are sampled in label
// order, so the scales are a function of the seed alone.
func (d *Dataset) tuneScales(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	byCluster := make(map[int][]int)
	for i, l := range d.Labels {
		if l >= 0 {
			byCluster[l] = append(byCluster[l], i)
		}
	}
	var dists []float64
	for _, l := range slices.Sorted(maps.Keys(byCluster)) {
		members := byCluster[l]
		if len(members) < 2 {
			continue
		}
		for t := 0; t < 40; t++ {
			i := members[rng.Intn(len(members))]
			j := members[rng.Intn(len(members))]
			if i != j {
				dists = append(dists, vec.L2(d.Points[i], d.Points[j]))
			}
		}
	}
	if len(dists) == 0 {
		d.SuggestedK = 1
		d.SuggestedLSHR = 1
		return
	}
	sort.Float64s(dists)
	med := dists[len(dists)/2]
	if med <= 0 {
		med = 1e-9
	}
	d.SuggestedK = -math.Log(0.85) / med
	d.SuggestedLSHR = 8 * med
}
