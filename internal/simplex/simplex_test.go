package simplex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndicator(t *testing.T) {
	x := Indicator(5, 2)
	if x[2] != 1 {
		t.Fatalf("Indicator = %v", x)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if sum != 1 {
		t.Fatalf("Indicator sum = %v", sum)
	}
}

func TestClamp(t *testing.T) {
	x := []float64{0.6, 1e-15, 0.4, 0}
	n := Clamp(x)
	if n != 1 {
		t.Fatalf("Clamp count = %d, want 1", n)
	}
	if x[1] != 0 || x[3] != 0 {
		t.Fatalf("Clamp left dust: %v", x)
	}
	if !IsMember(x, 1e-12) {
		t.Fatalf("Clamp result off simplex: %v", x)
	}
}

func TestIsMember(t *testing.T) {
	if !IsMember([]float64{0.3, 0.7}, 1e-12) {
		t.Error("valid point rejected")
	}
	if IsMember([]float64{0.5, 0.6}, 1e-12) {
		t.Error("sum>1 accepted")
	}
	if IsMember([]float64{-0.1, 1.1}, 1e-12) {
		t.Error("negative weight accepted")
	}
	if IsMember([]float64{math.NaN(), 1}, 1e-12) {
		t.Error("NaN accepted")
	}
}

func TestInvade(t *testing.T) {
	x := []float64{1, 0}
	y := []float64{0, 1}
	Invade(x, y, 0.25)
	if x[0] != 0.75 || x[1] != 0.25 {
		t.Fatalf("Invade = %v", x)
	}
	// ε clamped to [0,1]
	x2 := []float64{1, 0}
	Invade(x2, y, 2)
	if x2[0] != 0 || x2[1] != 1 {
		t.Fatalf("Invade with ε>1 = %v", x2)
	}
}

func TestInvadeVertexMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		x := randSimplex(rng, n)
		x2 := append([]float64(nil), x...)
		i := rng.Intn(n)
		eps := rng.Float64()
		InvadeVertex(x, i, eps)
		Invade(x2, Indicator(n, i), eps)
		for j := range x {
			if math.Abs(x[j]-x2[j]) > 1e-12 {
				t.Fatalf("InvadeVertex differs from generic at %d: %v vs %v", j, x, x2)
			}
		}
	}
}

func TestInvadeCoVertexRemovesVertexAtFullShare(t *testing.T) {
	x := []float64{0.5, 0.3, 0.2}
	InvadeCoVertex(x, 1, 1)
	if math.Abs(x[1]) > 1e-15 {
		t.Fatalf("vertex weight after full immunization = %v", x[1])
	}
	if !IsMember(x, 1e-12) {
		t.Fatalf("result off simplex: %v", x)
	}
	// Remaining mass redistributed proportionally: 0.5/0.7, 0.2/0.7.
	if math.Abs(x[0]-0.5/0.7) > 1e-12 || math.Abs(x[2]-0.2/0.7) > 1e-12 {
		t.Fatalf("redistribution wrong: %v", x)
	}
}

func TestInvadeCoVertexMatchesExplicitConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		x := randSimplex(rng, n)
		i := rng.Intn(n)
		if x[i] > 0.95 {
			continue
		}
		eps := rng.Float64()
		// Explicit co-vertex per Eq. 7: y = µ(s_i − x) + x.
		mu := CoVertexFactor(x[i])
		y := make([]float64, n)
		for j := range y {
			si := 0.0
			if j == i {
				si = 1
			}
			y[j] = mu*(si-x[j]) + x[j]
		}
		x2 := append([]float64(nil), x...)
		Invade(x2, y, eps)
		InvadeCoVertex(x, i, eps)
		for j := range x {
			if math.Abs(x[j]-x2[j]) > 1e-12 {
				t.Fatalf("co-vertex invade mismatch at %d", j)
			}
		}
	}
}

func TestCoVertexFactorNegative(t *testing.T) {
	for _, xi := range []float64{0.1, 0.5, 0.9} {
		if CoVertexFactor(xi) >= 0 {
			t.Errorf("µ(%v) = %v, want negative", xi, CoVertexFactor(xi))
		}
	}
	if CoVertexFactor(0) != 0 {
		t.Error("µ(0) should be 0")
	}
}

func TestInvasionShare(t *testing.T) {
	// π(y−x) < 0: interior optimum −num/den when that is < 1.
	if got := InvasionShare(0.2, -0.8); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("InvasionShare = %v, want 0.25", got)
	}
	// −num/den > 1 clamps to 1.
	if got := InvasionShare(0.9, -0.3); got != 1 {
		t.Errorf("InvasionShare = %v, want 1", got)
	}
	// π(y−x) ≥ 0: full share.
	if got := InvasionShare(0.5, 0.2); got != 1 {
		t.Errorf("InvasionShare = %v, want 1", got)
	}
	if got := InvasionShare(0.5, 0); got != 1 {
		t.Errorf("InvasionShare = %v, want 1", got)
	}
}

// Property: the invasion model keeps x on the simplex for any y ∈ Δⁿ and
// ε ∈ [0,1] — Theorem 2's precondition.
func TestInvadeStaysOnSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		x := randSimplex(r, n)
		y := randSimplex(r, n)
		Invade(x, y, r.Float64())
		return IsMember(x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: InvadeCoVertex keeps x on the simplex and never increases x_i.
func TestInvadeCoVertexProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		x := randSimplex(r, n)
		i := r.Intn(n)
		if x[i] >= 1 {
			return true
		}
		before := x[i]
		InvadeCoVertex(x, i, r.Float64())
		return IsMember(x, 1e-9) && x[i] <= before+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randSimplex(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	var sum float64
	for i := range x {
		x[i] = r.ExpFloat64()
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
	return x
}
