package lid

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"alid/internal/affinity"
)

// Property: under ANY interleaving of Extend and Solve over random data, the
// LID state keeps its invariants — x on the simplex, g consistent with the
// cached columns, density never decreasing across a solve.
func TestRandomInterleavingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		}
		o, err := affinity.NewOracle(pts, affinity.Kernel{K: 0.5 + rng.Float64(), P: 2})
		if err != nil {
			return false
		}
		s, err := NewState(o, rng.Intn(n), freshPos(o.N()))
		if err != nil {
			return false
		}
		remaining := rng.Perm(n)
		for len(remaining) > 0 {
			take := 1 + rng.Intn(len(remaining))
			s.Extend(remaining[:take])
			remaining = remaining[take:]
			before := s.Density()
			s.Solve(context.Background(), 200, 1e-9)
			if s.Density() < before-1e-9 {
				return false
			}
			if err := s.Sanity(); err != nil {
				return false
			}
		}
		return s.Sanity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the invasion share ε computed in Step always lies in [0,1] and a
// Step never pushes any weight negative beyond clamping dust.
func TestStepKeepsWeightsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		}
		o, err := affinity.NewOracle(pts, affinity.Kernel{K: 1, P: 2})
		if err != nil {
			return false
		}
		s, err := NewState(o, 0, freshPos(o.N()))
		if err != nil {
			return false
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		s.Extend(all)
		for it := 0; it < 100; it++ {
			if !s.Step(1e-10) {
				break
			}
			for _, xi := range s.x {
				if xi < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: support weights always sum to 1 and match Weight() accessors.
func TestSupportAccessorsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := make([][]float64, 25)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	o, err := affinity.NewOracle(pts, affinity.Kernel{K: 1, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewState(o, 3, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	s.Extend(all)
	s.Solve(context.Background(), 500, 1e-9)
	sup, w := s.SupportWeights()
	var sum float64
	for i, gidx := range sup {
		sum += w[i]
		if got := s.Weight(gidx); got != w[i] {
			t.Fatalf("Weight(%d) = %v, want %v", gidx, got, w[i])
		}
		if !s.Contains(gidx) {
			t.Fatalf("support member %d not Contains()", gidx)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("support weights sum to %v", sum)
	}
	if s.Contains(999) {
		t.Fatal("Contains(999) on 25-point graph")
	}
	if s.Weight(999) != 0 {
		t.Fatal("Weight of absent vertex must be 0")
	}
}
