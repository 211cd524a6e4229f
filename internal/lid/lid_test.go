package lid

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"alid/internal/affinity"
	"alid/internal/simplex"
)

func mustOracle(t *testing.T, pts [][]float64, k affinity.Kernel) *affinity.Oracle {
	t.Helper()
	o, err := affinity.NewOracle(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// cliquePoints builds a dataset realizing (approximately) a 0/1 affinity
// matrix: `sizes[i]` co-located points per clique, cliques far apart. With a
// sharp kernel, the in-clique affinity is 1 and the cross-clique affinity is
// ~0, so by Motzkin–Straus the maximum subgraph density is 1 − 1/ω where ω is
// the largest clique size.
func cliquePoints(sizes ...int) [][]float64 {
	var pts [][]float64
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			pts = append(pts, []float64{float64(c) * 1000, 0})
		}
	}
	return pts
}

func newFullState(t *testing.T, o *affinity.Oracle, seed int) *State {
	t.Helper()
	s, err := NewState(o, seed, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, o.N())
	for i := range all {
		all[i] = i
	}
	s.Extend(all)
	return s
}

func TestNewStateValidation(t *testing.T) {
	o := mustOracle(t, cliquePoints(2), affinity.DefaultKernel())
	if _, err := NewState(o, -1, freshPos(o.N())); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := NewState(o, 99, freshPos(o.N())); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := NewState(o, 0, freshPos(o.N()-1)); err == nil {
		t.Error("position index shorter than the oracle accepted")
	}
	s, err := NewState(o, 1, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.beta) != 1 || s.Density() != 0 {
		t.Fatalf("fresh state: len=%d π=%v", len(s.beta), s.Density())
	}
}

func TestMotzkinStrausDensity(t *testing.T) {
	// Largest clique has 4 vertices → optimal density 1 − 1/4 = 0.75.
	pts := cliquePoints(4, 2, 3)
	o := mustOracle(t, pts, affinity.Kernel{K: 5, P: 2})
	s := newFullState(t, o, 0) // seed inside the size-4 clique
	s.Solve(context.Background(), 1000, 1e-9)
	if got, want := s.Density(), 0.75; math.Abs(got-want) > 1e-6 {
		t.Fatalf("converged density = %v, want %v", got, want)
	}
	sup, _ := s.SupportWeights()
	if len(sup) != 4 {
		t.Fatalf("support = %v, want the 4-clique", sup)
	}
	for _, i := range sup {
		if i >= 4 {
			t.Fatalf("support contains non-clique vertex %d", i)
		}
	}
}

func TestSeedInSmallerCliqueStaysLocal(t *testing.T) {
	// Seeding in the 3-clique: LID converges to the local optimum of that
	// clique (density 1 − 1/3) because the 4-clique is not infective against
	// it (cross affinities ~0).
	pts := cliquePoints(4, 3)
	o := mustOracle(t, pts, affinity.Kernel{K: 5, P: 2})
	s := newFullState(t, o, 5)
	s.Solve(context.Background(), 1000, 1e-9)
	if got, want := s.Density(), 1-1.0/3; math.Abs(got-want) > 1e-6 {
		t.Fatalf("density = %v, want %v", got, want)
	}
}

func TestDensityMonotonicallyIncreases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 3, rng.Float64() * 3}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s := newFullState(t, o, 7)
	prev := s.Density()
	for iter := 0; iter < 500; iter++ {
		if !s.Step(1e-9) {
			break
		}
		cur := s.Density()
		if cur < prev-1e-9 {
			t.Fatalf("density decreased at iter %d: %v -> %v", iter, prev, cur)
		}
		prev = cur
	}
}

// At convergence the KKT conditions of the StQP (Eq. 3) must hold: no vertex
// has payoff above π(x)+tol, and support vertices have payoff ≈ π(x).
func TestConvergenceKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 60)
	for i := range pts {
		c := float64(i % 3)
		pts[i] = []float64{c*8 + rng.NormFloat64()*0.5, c*8 + rng.NormFloat64()*0.5}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s := newFullState(t, o, 0)
	s.Solve(context.Background(), 5000, 1e-9)
	pi := s.Density()
	for p, gidx := range s.beta {
		r := s.payoff(p, pi)
		if r > 1e-6 {
			t.Errorf("infective vertex %d survives convergence: payoff %v", gidx, r)
		}
		if s.x[p] > simplex.WeightEps && math.Abs(r) > 1e-6 {
			t.Errorf("support vertex %d payoff %v ≠ 0", gidx, r)
		}
	}
	if pi <= 0 {
		t.Fatalf("π = %v, want > 0", pi)
	}
	if err := s.Sanity(); err != nil {
		t.Fatal(err)
	}
}

func TestSanityAfterManySteps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 2, P: 2})
	s := newFullState(t, o, 4)
	for i := 0; i < 50; i++ {
		if !s.Step(1e-10) {
			break
		}
		if err := s.Sanity(); err != nil {
			t.Fatalf("after step %d: %v", i, err)
		}
	}
}

func TestExtendIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s, err := NewState(o, 0, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	// Grow the range in chunks, solving in between — the ALID usage pattern.
	for lo := 1; lo < 50; lo += 10 {
		hi := lo + 10
		if hi > 50 {
			hi = 50
		}
		chunk := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, i)
		}
		added := s.Extend(chunk)
		if added != hi-lo {
			t.Fatalf("Extend added %d, want %d", added, hi-lo)
		}
		if err := s.Sanity(); err != nil {
			t.Fatalf("sanity after extend to %d: %v", hi, err)
		}
		s.Solve(context.Background(), 500, 1e-9)
		if err := s.Sanity(); err != nil {
			t.Fatalf("sanity after solve at %d: %v", hi, err)
		}
	}
	// Duplicate extension is a no-op.
	if s.Extend([]int{3, 4, 5}) != 0 {
		t.Fatal("re-extending existing indices must add nothing")
	}
}

func TestImmune(t *testing.T) {
	pts := cliquePoints(3, 3)
	o := mustOracle(t, pts, affinity.Kernel{K: 5, P: 2})
	s, err := NewState(o, 0, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	s.Extend([]int{1, 2})
	s.Solve(context.Background(), 200, 1e-9)
	// Vertices of the far clique are non-infective; in-clique vertices are
	// already in β and converged.
	if !s.Immune([]int{3, 4, 5}, 1e-7) {
		t.Error("far clique should not be infective")
	}
	// A co-located vertex (same position as the converged clique) IS
	// infective against a partially-converged subgraph with lower density.
	s2, _ := NewState(o, 0, freshPos(o.N()))
	s2.Extend([]int{1})
	s2.Solve(context.Background(), 200, 1e-9) // density 1/2 on the pair
	if s2.Immune([]int{2}, 1e-7) {
		t.Error("third clique member must be infective against the pair")
	}
}

func TestColumnsBoundedBySupport(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 80)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s := newFullState(t, o, 0)
	s.Solve(context.Background(), 2000, 1e-9)
	s.Extend(nil) // triggers non-support column cleanup
	sup, _ := s.SupportWeights()
	if got := s.cachedColumns(); got > len(sup) {
		t.Fatalf("cached columns %d > support size %d", got, len(sup))
	}
	if s.PeakEntries() <= 0 {
		t.Fatal("peak entries not tracked")
	}
	if s.cached > s.PeakEntries() {
		t.Fatal("peak below current")
	}
}

func TestSingletonConverges(t *testing.T) {
	pts := [][]float64{{0, 0}, {100, 100}}
	o := mustOracle(t, pts, affinity.Kernel{K: 5, P: 2})
	s, err := NewState(o, 0, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Step(1e-9) {
		t.Error("singleton should be immediately converged")
	}
	if s.Density() != 0 {
		t.Errorf("singleton density = %v", s.Density())
	}
	if n, err := s.Solve(context.Background(), 10, 1e-9); n != 0 || err != nil {
		t.Errorf("Solve on singleton: %d iterations, err %v", n, err)
	}
}

func TestIterationsCounter(t *testing.T) {
	pts := cliquePoints(5)
	o := mustOracle(t, pts, affinity.Kernel{K: 5, P: 2})
	s := newFullState(t, o, 0)
	n, err := s.Solve(context.Background(), 100, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || s.iterations != n {
		t.Fatalf("Solve=%d iterations=%d", n, s.iterations)
	}
}

// Weights inside a symmetric clique must converge to uniform.
func TestUniformWeightsOnClique(t *testing.T) {
	pts := cliquePoints(6)
	o := mustOracle(t, pts, affinity.Kernel{K: 3, P: 2})
	s := newFullState(t, o, 2)
	s.Solve(context.Background(), 1000, 1e-10)
	_, w := s.SupportWeights()
	if len(w) != 6 {
		t.Fatalf("support size = %d, want 6", len(w))
	}
	for _, wi := range w {
		if math.Abs(wi-1.0/6) > 1e-6 {
			t.Fatalf("non-uniform clique weights: %v", w)
		}
	}
}

func BenchmarkLIDSolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := make([][]float64, 200)
	for i := range pts {
		c := float64(i % 4)
		pts[i] = []float64{c*6 + rng.NormFloat64()*0.4, c*6 + rng.NormFloat64()*0.4}
	}
	o, _ := affinity.NewOracle(pts, affinity.Kernel{K: 1, P: 2})
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	pos := freshPos(o.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := NewState(o, 0, pos)
		s.Extend(all)
		s.Solve(context.Background(), 2000, 1e-8)
		s.Release()
	}
}

// A pre-cancelled context must abort Solve before the first iteration, even
// with a MaxLID-sized budget: the inner loop polls the context (amortized),
// so a cancelled detection cannot pin a core for thousands of iterations.
func TestSolvePreCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s := newFullState(t, o, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := s.Solve(ctx, 1<<20, 1e-12)
	if err == nil {
		t.Fatal("Solve ignored a pre-cancelled context")
	}
	if n != 0 {
		t.Fatalf("Solve ran %d iterations under a pre-cancelled context", n)
	}
	if s.iterations != 0 {
		t.Fatalf("state advanced %d iterations under a pre-cancelled context", s.iterations)
	}
}

// lateCancelCtx cancels itself after a fixed number of Err calls — a
// deterministic stand-in for "the caller cancels mid-solve".
type lateCancelCtx struct {
	context.Context
	calls, after int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// Cancellation arriving mid-solve must stop the loop at the next amortized
// check (within cancelCheckEvery iterations), not run the budget dry.
func TestSolveCancelledMidway(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})
	s := newFullState(t, o, 0)
	ctx := &lateCancelCtx{Context: context.Background(), after: 2}
	n, err := s.Solve(ctx, 1<<20, 1e-15)
	if err == nil {
		t.Skip("solve converged before the cancellation point; fixture too easy")
	}
	// Err turns non-nil at the 3rd check, i.e. after at most 2·cancelCheckEvery
	// completed iterations.
	if n > 2*cancelCheckEvery {
		t.Fatalf("Solve ran %d iterations past a mid-solve cancellation (check cadence %d)", n, cancelCheckEvery)
	}
}
