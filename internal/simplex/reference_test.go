package simplex

import (
	"fmt"
	"math"
)

// Reference helpers for the tests: the generic invasion of Eq. 5 with an
// explicit y, the vertex subgraph it invades with, and a membership check
// on Δⁿ. The production paths (InvadeVertex, InvadeCoVertex, Clamp) are
// checked against them.

// Indicator returns the vertex subgraph s_i ∈ Δⁿ.
func Indicator(n, i int) []float64 {
	x := make([]float64, n)
	x[i] = 1
	return x
}

// IsMember reports whether x lies in Δⁿ up to tolerance tol on the sum.
func IsMember(x []float64, tol float64) bool {
	var sum float64
	for _, v := range x {
		if v < -tol || math.IsNaN(v) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

// Invade applies the invasion model of Eq. 5 in place: x ← (1−ε)x + εy.
// x and y must have the same length; ε is clamped to [0,1].
func Invade(x, y []float64, eps float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("simplex: invade length mismatch %d vs %d", len(x), len(y)))
	}
	eps = ClampShare(eps)
	om := 1 - eps
	for i := range x {
		x[i] = om*x[i] + eps*y[i]
	}
}
