package affinity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"alid/internal/vec"
)

func testPoints() [][]float64 {
	return [][]float64{
		{0, 0},
		{1, 0},
		{0, 1},
		{5, 5},
	}
}

func mustOracle(t *testing.T, pts [][]float64, k Kernel) *Oracle {
	t.Helper()
	o, err := NewOracle(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestKernelValidate(t *testing.T) {
	cases := []struct {
		k  Kernel
		ok bool
	}{
		{Kernel{K: 1, P: 2}, true},
		{Kernel{K: 0.5, P: 1}, true},
		{Kernel{K: 0, P: 2}, false},
		{Kernel{K: -1, P: 2}, false},
		{Kernel{K: 1, P: 0.5}, false},
		{Kernel{K: math.NaN(), P: 2}, false},
	}
	for _, c := range cases {
		err := c.k.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.k, err, c.ok)
		}
	}
}

func TestKernelAffinityValues(t *testing.T) {
	k := Kernel{K: 2, P: 2}
	a := k.Affinity([]float64{0, 0}, []float64{3, 4})
	want := math.Exp(-2 * 5)
	if math.Abs(a-want) > 1e-15 {
		t.Fatalf("Affinity = %v, want %v", a, want)
	}
}

func TestOracleErrors(t *testing.T) {
	if _, err := NewOracle(nil, DefaultKernel()); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := NewOracle([][]float64{{1}, {1, 2}}, DefaultKernel()); err == nil {
		t.Error("expected error for ragged dataset")
	}
	if _, err := NewOracle(testPoints(), Kernel{K: -1, P: 2}); err == nil {
		t.Error("expected error for bad kernel")
	}
}

func TestOracleDiagonalZero(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	if o.At(2, 2) != 0 {
		t.Fatalf("a_ii = %v, want 0", o.At(2, 2))
	}
}

func TestOracleCountsEvaluations(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	o.At(0, 1)
	o.At(1, 2)
	o.At(3, 3) // diagonal: no kernel evaluation
	if got := o.Computed(); got != 2 {
		t.Fatalf("Computed = %d, want 2", got)
	}
	if prev := o.ResetComputed(); prev != 2 {
		t.Fatalf("ResetComputed = %d, want 2", prev)
	}
	if o.Computed() != 0 {
		t.Fatal("counter not reset")
	}
}

func TestOracleColumn(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	rows := []int{0, 2, 1}
	dst := make([]float64, 3)
	o.Column(1, rows, dst)
	for r, row := range rows {
		want := o.Kernel.Affinity(o.Mat.Row(row), o.Mat.Row(1))
		if row == 1 {
			want = 0
		}
		if math.Abs(dst[r]-want) > 1e-15 {
			t.Errorf("Column[%d] = %v, want %v", r, dst[r], want)
		}
	}
}

func TestDenseSymmetricZeroDiag(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	d := NewDense(o)
	for i := 0; i < d.N; i++ {
		if d.At(i, i) != 0 {
			t.Errorf("diag %d = %v", i, d.At(i, i))
		}
		for j := 0; j < d.N; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Close points get larger affinity than far points.
	if !(d.At(0, 1) > d.At(0, 3)) {
		t.Error("affinity not monotone in distance")
	}
}

func TestDenseMulVecQuad(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	d := NewDense(o)
	x := []float64{0.25, 0.25, 0.25, 0.25}
	dst := make([]float64, 4)
	d.MulVec(dst, x)
	var want float64
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += d.At(i, j) * x[j]
		}
		if math.Abs(dst[i]-s) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, dst[i], s)
		}
		want += x[i] * s
	}
	// π(x) = xᵀAx, as the baselines compute it: x·(A·x).
	if got := vec.Dot(x, dst); math.Abs(got-want) > 1e-12 {
		t.Fatalf("xᵀAx = %v, want %v", got, want)
	}
}

func TestSparseBasics(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	// Asymmetric neighbor lists: edge (0,1) only listed once, must be symmetrized.
	nbrs := [][]int{{1}, {}, {0, 1}, {}}
	s := NewSparse(o, nbrs)
	if s.At(0, 1) == 0 || s.At(1, 0) == 0 {
		t.Error("edge (0,1) missing after symmetrization")
	}
	if s.At(0, 1) != s.At(1, 0) {
		t.Error("sparse matrix not symmetric")
	}
	if s.At(0, 3) != 0 {
		t.Error("absent edge should read as 0")
	}
	if s.At(2, 2) != 0 {
		t.Error("diagonal must be zero")
	}
	// Edges: (0,1),(0,2),(1,2) symmetrized = 6 stored entries.
	if s.NNZ() != 6 {
		t.Errorf("NNZ = %d, want 6", s.NNZ())
	}
	wantSD := 1 - 6.0/16.0
	if math.Abs(s.SparseDegree()-wantSD) > 1e-15 {
		t.Errorf("SparseDegree = %v, want %v", s.SparseDegree(), wantSD)
	}
}

func TestSparseIgnoresSelfAndOutOfRange(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	s := NewSparse(o, [][]int{{0, -5, 99, 1}, {}, {}, {}})
	if s.NNZ() != 2 { // only (0,1) and (1,0)
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
}

func TestSparseMatchesDenseOnKeptEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
	}
	o := mustOracle(t, pts, Kernel{K: 0.7, P: 2})
	dm := NewDense(o)
	nbrs := make([][]int, len(pts))
	for i := range nbrs {
		for j := 0; j < len(pts); j++ {
			if j != i && rng.Float64() < 0.3 {
				nbrs[i] = append(nbrs[i], j)
			}
		}
	}
	s := NewSparse(o, nbrs)
	for i := 0; i < s.N; i++ {
		cols, vals := s.Row(i)
		for t2, j := range cols {
			if math.Abs(vals[t2]-dm.At(i, int(j))) > 1e-14 {
				t.Fatalf("sparse(%d,%d)=%v dense=%v", i, j, vals[t2], dm.At(i, int(j)))
			}
		}
	}
	// MulVec consistency on the stored pattern.
	x := make([]float64, len(pts))
	for i := range x {
		x[i] = rng.Float64()
	}
	got := make([]float64, len(pts))
	s.MulVec(got, x)
	for i := range got {
		cols, vals := s.Row(i)
		var want float64
		for t2, j := range cols {
			want += vals[t2] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("sparse MulVec mismatch at %d", i)
		}
	}
}

// Property: affinities are always in (0,1] off-diagonal for finite points,
// symmetric, and decrease with distance scaling.
func TestAffinityRangeProperty(t *testing.T) {
	k := Kernel{K: 1.3, P: 2}
	f := func(ax, ay, bx, by float64) bool {
		clean := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		a := []float64{clean(ax), clean(ay)}
		b := []float64{clean(bx), clean(by)}
		v := k.Affinity(a, b)
		if !(v > 0 && v <= 1) {
			return false
		}
		return math.Abs(v-k.Affinity(b, a)) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadSparseAgainstDirect(t *testing.T) {
	o := mustOracle(t, testPoints(), DefaultKernel())
	s := NewSparse(o, [][]int{{1, 2}, {2}, {}, {0}})
	x := []float64{0.4, 0.3, 0.2, 0.1}
	var want float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want += x[i] * x[j] * s.At(i, j)
		}
	}
	ax := make([]float64, 4)
	s.MulVec(ax, x)
	if got := vec.Dot(x, ax); math.Abs(got-want) > 1e-12 {
		t.Fatalf("xᵀAx = %v, want %v", got, want)
	}
}

// At returns a_ij of a sparse matrix, zero when the entry is not stored.
func (s *Sparse) At(i, j int) float64 {
	cols, vals := s.Row(i)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[k]
	}
	return 0
}
