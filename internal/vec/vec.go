// Package vec provides the small dense-vector kernels every other module in
// this repository is built on: Lp distances, norms, scaled accumulation and
// weighted centroids. All functions operate on []float64 without allocating
// unless the documentation says otherwise.
package vec

import (
	"fmt"
	"math"
)

// L2 returns the Euclidean distance between a and b.
// It panics if the lengths differ (programming error, not input error).
func L2(a, b []float64) float64 {
	return math.Sqrt(SquaredL2(a, b))
}

// SquaredL2 returns the squared Euclidean distance between a and b. The loop
// is 4-way unrolled with independent accumulators: the naive dependent-sum
// formulation is bound by floating-point add latency, which dominates every
// distance-heavy path (kernel columns, ROI filtering, k-NN).
func SquaredL2(a, b []float64) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredL2Below is SquaredL2 with an early exit for nearest-neighbour
// scans: it returns (SquaredL2(a, b), true), bit-identical, unless a partial
// sum taken every 16 coordinates already exceeds bound, in which case it
// stops and returns that partial sum and false. The accumulation is
// SquaredL2's exactly; every accumulator only grows and float addition is
// monotone, so a false return guarantees SquaredL2(a, b) > bound. A true
// return does not guarantee the sum is at or below bound: the coordinates
// after the last check may push it over.
func SquaredL2Below(a, b []float64, bound float64) (float64, bool) {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if i&15 == 12 {
			if s := (s0 + s1) + (s2 + s3); s > bound {
				return s, false
			}
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3), true
}

// L1 returns the Manhattan distance between a and b.
func L1(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i, av := range a {
		s += math.Abs(av - b[i])
	}
	return s
}

// Lp returns the Lp distance ‖a−b‖_p for p ≥ 1. p = 1 and p = 2 dispatch to
// the specialized kernels.
func Lp(a, b []float64, p float64) float64 {
	switch p {
	case 1:
		return L1(a, b)
	case 2:
		return L2(a, b)
	}
	checkLen(a, b)
	var s float64
	for i, av := range a {
		s += math.Pow(math.Abs(av-b[i]), p)
	}
	return math.Pow(s, 1/p)
}

// Dot returns the inner product of a and b, 4-way unrolled with independent
// accumulators (see SquaredL2 for why).
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot2 returns (a·x, b·x) in a single pass over x, sharing each block of x
// loads between the two products. The per-output accumulation-lane structure
// is identical to Dot, so Dot2(x, a, b) is bit-identical to
// (Dot(a, x), Dot(b, x)) — the hot fused-distance paths rely on this to keep
// blocked column evaluation equal to per-pair evaluation.
func Dot2(x, a, b []float64) (float64, float64) {
	checkLen(a, x)
	checkLen(b, x)
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		a0 += a[i] * x0
		a1 += a[i+1] * x1
		a2 += a[i+2] * x2
		a3 += a[i+3] * x3
		b0 += b[i] * x0
		b1 += b[i+1] * x1
		b2 += b[i+2] * x2
		b3 += b[i+3] * x3
	}
	for ; i < len(x); i++ {
		a0 += a[i] * x[i]
		b0 += b[i] * x[i]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	var s float64
	for _, av := range a {
		s += av * av
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of a by c in place.
func Scale(a []float64, c float64) {
	for i := range a {
		a[i] *= c
	}
}

// Axpy computes y ← y + c·x in place.
func Axpy(y []float64, c float64, x []float64) {
	checkLen(y, x)
	for i := range y {
		y[i] += c * x[i]
	}
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Zero sets every element of a to 0.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// NormalizeL2 scales a in place to unit Euclidean norm. Zero vectors are left
// unchanged.
func NormalizeL2(a []float64) {
	n := Norm2(a)
	if n > 0 {
		Scale(a, 1/n)
	}
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
}
