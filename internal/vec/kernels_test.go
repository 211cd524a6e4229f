package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The unrolled kernels must agree with naive sequential evaluation to
// summation-reordering accuracy, across lengths that exercise every tail.
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var dot, sq float64
		for i := range a {
			dot += a[i] * b[i]
			d := a[i] - b[i]
			sq += d * d
		}
		if got := Dot(a, b); math.Abs(got-dot) > 1e-12*(1+math.Abs(dot)) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, got, dot)
		}
		if got := SquaredL2(a, b); math.Abs(got-sq) > 1e-12*(1+sq) {
			t.Fatalf("n=%d: SquaredL2 = %v, want %v", n, got, sq)
		}
	}
}

// SquaredL2Below must return SquaredL2's exact bits whenever it finishes, and
// give up only when SquaredL2 really exceeds the bound — across every tail
// length around the 4-lane unroll and the 16-coordinate check, bounds on and
// either side of the exact value, and sums that overflow to +Inf.
func TestSquaredL2Below(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inf := math.Inf(1)
	for n := 0; n <= 37; n++ {
		for _, scale := range []float64{1, 1e-3, 1e160} {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64() * scale
				b[i] = rng.NormFloat64() * scale
			}
			if n > 0 && scale == 1 {
				a[n/2] = 1e200 // one coordinate overflows mid-vector
			}
			want := SquaredL2(a, b)
			for _, bound := range []float64{
				-1, 0, want / 2, want, math.Nextafter(want, -inf), math.Nextafter(want, inf),
				math.MaxFloat64, inf,
			} {
				got, ok := SquaredL2Below(a, b, bound)
				if ok {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d scale=%g bound=%v: got %v, SquaredL2 %v", n, scale, bound, got, want)
					}
					continue
				}
				if !(want > bound) || !(got > bound) || got > want {
					t.Fatalf("n=%d scale=%g bound=%v: gave up at partial %v, but SquaredL2 = %v", n, scale, bound, got, want)
				}
			}
			if _, ok := SquaredL2Below(a, b, -1); n >= 16 && ok {
				t.Fatalf("n=%d: a negative bound must stop at the first check", n)
			}
		}
	}
}

// The distance kernels sit inside every hot loop; they must never allocate.
func TestKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := make([]float64, 101)
	b := make([]float64, 101)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += Dot(a, b) }); allocs != 0 {
		t.Fatalf("Dot allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink += SquaredL2(a, b) }); allocs != 0 {
		t.Fatalf("SquaredL2 allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s, _ := SquaredL2Below(a, b, 50); sink += s }); allocs != 0 {
		t.Fatalf("SquaredL2Below allocates %v per run, want 0", allocs)
	}
	_ = sink
}
