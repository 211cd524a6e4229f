// Package simplex provides the standard-simplex vector algebra of Section 3:
// subgraphs of an affinity graph are points of Δⁿ = {x : Σx_i = 1, x_i ≥ 0},
// and the infection-immunization methods move through Δⁿ via the invasion
// model z = (1−ε)x + εy (Eq. 5). The helpers here are shared by the ALID core
// and by the IID / DS / SEA baselines.
package simplex

import "math"

// WeightEps is the threshold below which a vertex weight is treated as zero.
// Floating-point invasion updates leave dust of order 1e-17 on immunized
// vertices; anything below WeightEps is clamped out of the support.
const WeightEps = 1e-10

// Clamp zeroes weights below WeightEps and renormalizes x to sum 1 in place.
// It returns the number of clamped entries. Clamping keeps supports exact so
// that peeling and ROI estimation see the true member set.
func Clamp(x []float64) int {
	clamped := 0
	var sum float64
	for i, v := range x {
		if v <= WeightEps {
			if v != 0 {
				clamped++
			}
			x[i] = 0
			continue
		}
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i, v := range x {
			if v != 0 {
				x[i] = v * inv
			}
		}
	}
	return clamped
}

// InvadeVertex applies Eq. 5 with y = s_i without materializing s_i:
// x ← (1−ε)x, then x_i += ε.
func InvadeVertex(x []float64, i int, eps float64) {
	eps = ClampShare(eps)
	om := 1 - eps
	for j := range x {
		x[j] *= om
	}
	x[i] += eps
}

// InvadeCoVertex applies Eq. 5 with y = s_i(x), the co-vertex of Eq. 7
// representing the subgraph of everything in x except vertex i. With
// µ = x_i/(x_i−1) the composite update is x ← x + ε·µ·(s_i − x), i.e.
// x_j ← x_j(1−εµ) for j≠i and x_i ← x_i(1−εµ) + εµ. ε = 1 removes vertex i
// entirely.
func InvadeCoVertex(x []float64, i int, eps float64) {
	eps = ClampShare(eps)
	mu := CoVertexFactor(x[i])
	f := eps * mu
	om := 1 - f
	for j := range x {
		x[j] *= om
	}
	x[i] += f
}

// CoVertexFactor returns µ = x_i/(x_i−1), the (negative) scale factor of the
// co-vertex construction (Eq. 7/12). x_i must be in [0,1); x_i = 1 would mean
// immunizing the entire subgraph against its only vertex, which cannot occur
// because a single-vertex subgraph has π(s_i − x, x) = 0.
func CoVertexFactor(xi float64) float64 {
	return xi / (xi - 1)
}

// InvasionShare computes ε_y(x) per Eq. 9 from the two payoff components:
// num = π(y−x, x) (must be > 0 for an infective y) and den = π(y−x).
func InvasionShare(num, den float64) float64 {
	if den < 0 {
		return math.Min(-num/den, 1)
	}
	return 1
}

// ClampShare clamps an invasion share to [0,1], as InvadeVertex and
// InvadeCoVertex do before they move x.
func ClampShare(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
