package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestJacobiDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, 1)
	s.Set(2, 2, 2)
	vals, vecs, err := Jacobi(s, 64, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
	// Eigenvector of λ=3 must be e0 up to sign.
	if math.Abs(math.Abs(vecs[0][0])-1) > 1e-10 {
		t.Fatalf("vecs[0] = %v", vecs[0])
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(1, 1, 2)
	s.Set(0, 1, 1)
	vals, vecs, err := Jacobi(s, 64, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
	// λ=3 eigenvector ∝ (1,1)/√2.
	v := vecs[0]
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Fatalf("vecs[0] = %v", v)
	}
}

func randomSym(rng *rand.Rand, n int) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// A·v = λ·v must hold for every Jacobi eigenpair.
func TestJacobiEigenEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		s := randomSym(rng, n)
		vals, vecs, err := Jacobi(s, 100, 1e-16)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		for k := 0; k < n; k++ {
			s.MulVec(dst, vecs[k])
			for i := 0; i < n; i++ {
				if math.Abs(dst[i]-vals[k]*vecs[k][i]) > 1e-8 {
					t.Fatalf("trial %d: A·v ≠ λv at (%d,%d): %v vs %v", trial, k, i, dst[i], vals[k]*vecs[k][i])
				}
			}
		}
		// Eigenvalues descending.
		for k := 1; k < n; k++ {
			if vals[k] > vals[k-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", vals)
			}
		}
	}
}

func TestJacobiTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSym(rng, 6)
	var trace float64
	for i := 0; i < 6; i++ {
		trace += s.At(i, i)
	}
	vals, _, err := Jacobi(s, 100, 1e-16)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Fatalf("Σλ = %v, trace = %v", sum, trace)
	}
}

func TestGramSchmidtOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	block := make([][]float64, 4)
	for i := range block {
		block[i] = make([]float64, 10)
		for j := range block[i] {
			block[i][j] = rng.NormFloat64()
		}
	}
	GramSchmidt(block)
	for i := range block {
		for j := range block {
			var dot float64
			for t2 := range block[i] {
				dot += block[i][t2] * block[j][t2]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("<v%d,v%d> = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestGramSchmidtDegenerateRows(t *testing.T) {
	// Two identical rows: the second must be replaced, not left as zero.
	block := [][]float64{
		{1, 0, 0, 0},
		{1, 0, 0, 0},
	}
	GramSchmidt(block)
	var norm float64
	for _, v := range block[1] {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("degenerate row not recovered: %v", block[1])
	}
}

// Subspace iteration must agree with Jacobi on the dominant eigenpairs of a
// PSD matrix (power iteration tracks |λ|, so make the spectrum positive).
func TestSubspaceIterationMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	base := randomSym(rng, n)
	// A = BᵀB + I is symmetric positive definite.
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += base.At(k, i) * base.At(k, j)
			}
			if i == j {
				dot++
			}
			s.Set(i, j, dot)
		}
	}
	jv, _, err := Jacobi(s, 100, 1e-16)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := SubspaceIteration(s.MulVec, n, 3, 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		rel := math.Abs(vals[k]-jv[k]) / jv[k]
		if rel > 1e-6 {
			t.Errorf("λ%d: subspace %v vs jacobi %v", k, vals[k], jv[k])
		}
		// Residual ‖Av − λv‖ small.
		dst := make([]float64, n)
		s.MulVec(dst, vecs[k])
		var res float64
		for i := range dst {
			d := dst[i] - vals[k]*vecs[k][i]
			res += d * d
		}
		if math.Sqrt(res) > 1e-4*math.Abs(vals[k]) {
			t.Errorf("eigenpair %d residual %v", k, math.Sqrt(res))
		}
	}
}

func TestSubspaceIterationErrors(t *testing.T) {
	s := NewSym(4)
	if _, _, err := SubspaceIteration(s.MulVec, 4, 0, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := SubspaceIteration(s.MulVec, 4, 5, 10, 1); err == nil {
		t.Error("k>n accepted")
	}
}

func TestJacobiEmpty(t *testing.T) {
	if _, _, err := Jacobi(&Sym{}, 10, 1e-12); err == nil {
		t.Error("empty matrix accepted")
	}
}

// Test helpers on Sym: the eigensolver tests check A·v = λ·v and the trace.

// At returns element (i,j).
func (s *Sym) At(i, j int) float64 { return s.Data[i*s.N+j] }

// MulVec computes dst = S·x.
func (s *Sym) MulVec(dst, x []float64) {
	n := s.N
	for i := 0; i < n; i++ {
		row := s.Data[i*n : (i+1)*n]
		var acc float64
		for j, v := range row {
			acc += v * x[j]
		}
		dst[i] = acc
	}
}
