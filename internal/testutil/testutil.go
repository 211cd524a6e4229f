// Package testutil provides small dataset fixtures shared by the test suites
// of the clustering methods.
package testutil

import (
	"math/rand"
)

// Blobs generates nPerBlob points around each center with Gaussian spread,
// plus nNoise uniform points over [noiseLo, noiseHi]^dim. Labels are the blob
// index, -1 for noise.
func Blobs(seed int64, centers [][]float64, nPerBlob int, spread float64, nNoise int, noiseLo, noiseHi float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	dim := len(centers[0])
	var pts [][]float64
	var labels []int
	for c, ctr := range centers {
		for i := 0; i < nPerBlob; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = ctr[j] + rng.NormFloat64()*spread
			}
			pts = append(pts, p)
			labels = append(labels, c)
		}
	}
	for i := 0; i < nNoise; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = noiseLo + rng.Float64()*(noiseHi-noiseLo)
		}
		pts = append(pts, p)
		labels = append(labels, -1)
	}
	return pts, labels
}

// Cliques places sizes[i] identical points per clique, cliques far apart —
// with a sharp kernel this realizes a 0/1 affinity matrix whose optimal
// subgraph density is 1 − 1/ω (Motzkin–Straus).
func Cliques(sizes ...int) ([][]float64, []int) {
	var pts [][]float64
	var labels []int
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			pts = append(pts, []float64{float64(c) * 1000, 0})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

// Purity returns the fraction of members sharing the cluster's majority
// ground-truth label, and that label.
func Purity(members []int, labels []int) (float64, int) {
	if len(members) == 0 {
		return 0, -2
	}
	counts := map[int]int{}
	for _, m := range members {
		counts[labels[m]]++
	}
	bestL, bestN := -2, 0
	for l, n := range counts {
		if n > bestN {
			bestL, bestN = l, n
		}
	}
	return float64(bestN) / float64(len(members)), bestL
}

// ServeWorkload generates the serving-path benchmark dataset shared by
// internal/engine's BenchmarkAssign and cmd/experiments' load generator
// (they must measure the same workload): n points in d dimensions, 90%
// spread over `blobs` well-separated Gaussian blobs (σ = 0.3, centers
// uniform in [0,40]^d), 10% uniform background noise. Deterministic.
// Returns the points and the blob centers.
func ServeWorkload(n, d, blobs int) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(71))
	centers := make([][]float64, blobs)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 40
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		if i < n*9/10 {
			c := centers[i%blobs]
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*0.3
			}
		} else {
			for j := range p {
				p[j] = rng.Float64() * 40
			}
		}
		pts[i] = p
	}
	return pts, centers
}

// fmaX, fmaY and fmaZ are variables, so FusesMultiplyAdd's expression is
// compiled as the library's arithmetic is, not folded as a constant.
var fmaX, fmaY, fmaZ = 1 + 0x1p-30, 1 - 0x1p-30, -1.0

// FusesMultiplyAdd reports whether this build evaluates x*y+z with one
// rounding (arm64 builds do; amd64 builds, where the golden values were
// recorded, do not): x·y = 1−2⁻⁶⁰ rounds to 1 on its own, so only a fused
// evaluation leaves −2⁻⁶⁰. Golden tests that pin float bits skip when it
// reports true.
func FusesMultiplyAdd() bool { return fmaX*fmaY+fmaZ != 0 }
