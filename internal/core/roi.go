// Package core implements ALID itself (Section 4, Algorithm 2): the
// iteration LID → ROI → CIVS over a lazily materialized local affinity graph,
// plus the peeling driver that extracts every dominant cluster.
package core

import (
	"math"

	"alid/internal/affinity"
	"alid/internal/matrix"
	"alid/internal/vec"
)

// ROI is the double-deck hyperball H(D, R_in, R_out) of Section 4.2 together
// with the interpolated search radius R of Eq. 16.
type ROI struct {
	// D is the ball center, the weighted centroid Σ x̂_i·v_i.
	D []float64
	// Rin is the inner radius: every point strictly inside is guaranteed
	// infective against x̂ (Proposition 1, property 1).
	Rin float64
	// Rout is the outer radius: every point strictly outside is guaranteed
	// non-infective (Proposition 1, property 2).
	Rout float64
	// R is the search radius actually used at this iteration,
	// R = Rin + θ(c)(Rout − Rin).
	R float64
}

// thetaGrowth is the shifted logistic schedule θ(c) = 1/(1+e^{4−c/2}) that
// moves the ROI surface from the inner to the outer ball as the outer
// iteration count c grows (Eq. 16).
func thetaGrowth(c int) float64 {
	return 1 / (1 + math.Exp(4-float64(c)/2))
}

// EstimateROI computes the ROI from a local dense subgraph given by parallel
// slices of support indices and weights, its density pi, and the current
// outer iteration c (1-based).
//
// Degenerate subgraphs (singleton support or pi ≤ 0) have an unbounded outer
// ball — every vertex with positive affinity is infective against a
// zero-density subgraph — so R is +Inf and the caller's δ-nearest cap is the
// only limit, mirroring the paper's treatment of the first iteration.
func EstimateROI(m *matrix.Matrix, support []int, weights []float64, pi float64, k affinity.Kernel, c int) ROI {
	d := m.WeightedCentroid(support, weights)
	roi := ROI{D: d}
	if pi <= 0 || len(support) < 2 {
		roi.Rin = math.Inf(1)
		roi.Rout = math.Inf(1)
		roi.R = math.Inf(1)
		return roi
	}
	euclid := k.P == 2
	var centerNormSq float64
	if euclid {
		centerNormSq = vec.Dot(d, d)
	}
	var lambdaIn, lambdaOut float64
	for t, i := range support {
		var dist float64
		if euclid {
			dist = math.Sqrt(m.DistSq(i, d, centerNormSq))
		} else {
			dist = k.Distance(m.Row(i), d)
		}
		lambdaIn += weights[t] * math.Exp(-k.K*dist)
		lambdaOut += weights[t] * math.Exp(k.K*dist)
	}
	roi.Rin = math.Log(lambdaIn/pi) / k.K
	roi.Rout = math.Log(lambdaOut/pi) / k.K
	if roi.Rin < 0 {
		roi.Rin = 0
	}
	if roi.Rout < roi.Rin {
		roi.Rout = roi.Rin
	}
	roi.R = roi.Rin + thetaGrowth(c)*(roi.Rout-roi.Rin)
	return roi
}
