package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestL2(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{3, 4, 0}
	if got := L2(a, b); !almostEqual(got, 5, eps) {
		t.Fatalf("L2 = %v, want 5", got)
	}
}

func TestSquaredL2(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{4, 6}
	if got := SquaredL2(a, b); !almostEqual(got, 25, eps) {
		t.Fatalf("SquaredL2 = %v, want 25", got)
	}
}

func TestL1(t *testing.T) {
	a := []float64{1, -2, 3}
	b := []float64{0, 0, 0}
	if got := L1(a, b); !almostEqual(got, 6, eps) {
		t.Fatalf("L1 = %v, want 6", got)
	}
}

func TestLpDispatch(t *testing.T) {
	a := []float64{1, 2, -1}
	b := []float64{-2, 0, 3}
	if got, want := Lp(a, b, 1), L1(a, b); !almostEqual(got, want, eps) {
		t.Errorf("Lp(1) = %v, want %v", got, want)
	}
	if got, want := Lp(a, b, 2), L2(a, b); !almostEqual(got, want, eps) {
		t.Errorf("Lp(2) = %v, want %v", got, want)
	}
}

func TestLpGeneral(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{1, 1}
	// L3 distance of (1,1) is 2^(1/3).
	if got, want := Lp(a, b, 3), math.Pow(2, 1.0/3); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Lp(3) = %v, want %v", got, want)
	}
}

func TestDotAndNorms(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if got := Dot(a, b); !almostEqual(got, 12, eps) {
		t.Errorf("Dot = %v, want 12", got)
	}
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, eps) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestScaleAxpy(t *testing.T) {
	a := []float64{1, 2}
	Scale(a, 3)
	if a[0] != 3 || a[1] != 6 {
		t.Fatalf("Scale gave %v", a)
	}
	y := []float64{1, 1}
	Axpy(y, 2, []float64{3, 4})
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy gave %v", y)
	}
}

func TestClone(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Error("Clone aliases input")
	}
}

func TestNormalize(t *testing.T) {
	a := []float64{3, 4}
	NormalizeL2(a)
	if !almostEqual(Norm2(a), 1, eps) {
		t.Errorf("NormalizeL2 norm = %v", Norm2(a))
	}
	z := []float64{0, 0}
	NormalizeL2(z) // must not panic or produce NaN
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("NormalizeL2 of zero vector changed it: %v", z)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	L2([]float64{1}, []float64{1, 2})
}

// Property: triangle inequality for the metrics we use. The ROI correctness
// proof (Proposition 1) depends on it, so we verify it holds for our kernels.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func() []float64 {
		v := make([]float64, 8)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := gen(), gen(), gen()
		for _, p := range []float64{1, 2, 3} {
			ab, bc, ac := Lp(a, b, p), Lp(b, c, p), Lp(a, c, p)
			if ac > ab+bc+1e-9 {
				t.Fatalf("triangle inequality violated for p=%v: %v > %v + %v", p, ac, ab, bc)
			}
		}
	}
}

// Property: distances are symmetric and zero on identical input.
func TestMetricAxiomsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			a[i] = math.Mod(v, 1e6)
			b[i] = math.Mod(v/2, 1e6)
		}
		if !almostEqual(L2(a, b), L2(b, a), 1e-9) {
			return false
		}
		if L2(a, a) != 0 || L1(a, a) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSquaredL2Dim128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 128)
	y := make([]float64, 128)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredL2(x, y)
	}
}
