package lid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"alid/internal/affinity"
	"alid/internal/par"
	"alid/internal/simplex"
)

// refState is the serial LID state as it stood before column reuse and the
// fused Step: columns keyed by global index in a map and each one evaluated
// in full, and a six-pass Step (Density, selection, simplex.InvadeVertex or
// InvadeCoVertex, the g update, simplex.Clamp's two passes). State must
// reproduce its x, g and π bit for bit, with fewer kernel evaluations.
type refState struct {
	oracle *affinity.Oracle

	beta []int
	pos  map[int]int
	x    []float64
	g    []float64
	cols map[int][]float64

	cached, peakEntries, iterations int
	// infections and immunizations count the steps of each kind, so a
	// comparison can show it covered both branches of Step.
	infections, immunizations int
}

func newRefState(o *affinity.Oracle, seed int) *refState {
	return &refState{
		oracle:      o,
		beta:        []int{seed},
		pos:         map[int]int{seed: 0},
		x:           []float64{1},
		g:           []float64{0},
		cols:        map[int][]float64{seed: {0}},
		cached:      1,
		peakEntries: 1,
	}
}

func (s *refState) density() float64 { return freshDensity(s.x, s.g) }

func (s *refState) column(global int) []float64 {
	if c, ok := s.cols[global]; ok {
		return c
	}
	c := make([]float64, len(s.beta))
	s.oracle.Column(global, s.beta, c)
	s.cols[global] = c
	s.cached += len(c)
	s.peakEntries = max(s.peakEntries, s.cached)
	return c
}

func (s *refState) step(tol float64) bool {
	pi := s.density()
	best, bestAbs, bestR := -1, tol, 0.0
	for p := range s.beta {
		r := s.g[p] - pi
		switch {
		case r > 0:
			if r > bestAbs {
				best, bestAbs, bestR = p, r, r
			}
		case r < 0 && s.x[p] > simplex.WeightEps:
			if -r > bestAbs {
				best, bestAbs, bestR = p, -r, r
			}
		}
	}
	if best < 0 {
		return false
	}
	s.iterations++
	col := s.column(s.beta[best])
	piDiff := -2*s.g[best] + pi
	if bestR > 0 {
		s.infections++
		eps := simplex.InvasionShare(bestR, piDiff)
		simplex.InvadeVertex(s.x, best, eps)
		for r := range s.g {
			s.g[r] += eps * (col[r] - s.g[r])
		}
	} else {
		s.immunizations++
		mu := simplex.CoVertexFactor(s.x[best])
		num := mu * bestR
		den := mu * mu * piDiff
		eps := simplex.InvasionShare(num, den)
		simplex.InvadeCoVertex(s.x, best, eps)
		f := eps * mu
		for r := range s.g {
			s.g[r] += f * (col[r] - s.g[r])
		}
	}
	simplex.Clamp(s.x)
	return true
}

func (s *refState) solve(maxIter int, tol float64) int {
	n := 0
	for n < maxIter && s.step(tol) {
		n++
	}
	return n
}

func (s *refState) extend(newGlobal []int) int {
	var fresh []int
	for _, gidx := range newGlobal {
		if _, ok := s.pos[gidx]; !ok {
			fresh = append(fresh, gidx)
		}
	}
	for colIdx, c := range s.cols {
		if s.x[s.pos[colIdx]] <= simplex.WeightEps {
			delete(s.cols, colIdx)
			s.cached -= len(c)
		}
	}
	if len(fresh) == 0 {
		return 0
	}
	oldLen := len(s.beta)
	for _, gidx := range fresh {
		s.pos[gidx] = len(s.beta)
		s.beta = append(s.beta, gidx)
		s.x = append(s.x, 0)
		s.g = append(s.g, 0)
	}
	colIdxs := make([]int, 0, len(s.cols))
	for colIdx := range s.cols {
		colIdxs = append(colIdxs, colIdx)
	}
	sort.Ints(colIdxs)
	newRows := s.beta[oldLen:]
	for _, colIdx := range colIdxs {
		tail := make([]float64, len(newRows))
		s.oracle.Column(colIdx, newRows, tail)
		s.cols[colIdx] = append(s.cols[colIdx], tail...)
		s.cached += len(tail)
		if xi := s.x[s.pos[colIdx]]; xi > 0 {
			for r := range tail {
				s.g[oldLen+r] += xi * tail[r]
			}
		}
	}
	s.peakEntries = max(s.peakEntries, s.cached)
	return len(fresh)
}

func (s *refState) immune(candidates []int, tol float64) bool {
	pi := s.density()
	var sup []int
	var w []float64
	for i, xi := range s.x {
		if xi > simplex.WeightEps {
			sup = append(sup, s.beta[i])
			w = append(w, xi)
		}
	}
	evals := 0
	defer func() { s.oracle.AddComputed(int64(evals)) }()
	for _, gidx := range candidates {
		if p, ok := s.pos[gidx]; ok {
			if s.g[p]-pi > tol {
				return false
			}
			continue
		}
		var gj float64
		for t, i := range sup {
			gj += w[t] * s.oracle.Pair(gidx, i)
		}
		evals += len(sup)
		if gj-pi > tol {
			return false
		}
	}
	return true
}

// sameAsRef compares everything the reference holds: β order, x, g and π
// bit for bit, the iteration count, and the cached-entry count and its peak
// (column reuse changes what is evaluated, never what is cached).
func sameAsRef(s *State, ref *refState) error {
	if len(s.beta) != len(ref.beta) {
		return fmt.Errorf("|β| = %d, reference %d", len(s.beta), len(ref.beta))
	}
	for p := range ref.beta {
		if s.beta[p] != ref.beta[p] {
			return fmt.Errorf("beta[%d] = %d, reference %d", p, s.beta[p], ref.beta[p])
		}
		if math.Float64bits(s.x[p]) != math.Float64bits(ref.x[p]) {
			return fmt.Errorf("x[%d] = %v, reference %v", p, s.x[p], ref.x[p])
		}
		if math.Float64bits(s.g[p]) != math.Float64bits(ref.g[p]) {
			return fmt.Errorf("g[%d] = %v, reference %v", p, s.g[p], ref.g[p])
		}
	}
	if math.Float64bits(s.Density()) != math.Float64bits(ref.density()) {
		return fmt.Errorf("π = %v, reference %v", s.Density(), ref.density())
	}
	if s.iterations != ref.iterations {
		return fmt.Errorf("%d iterations, reference %d", s.iterations, ref.iterations)
	}
	if s.cached != ref.cached || s.PeakEntries() != ref.peakEntries {
		return fmt.Errorf("cached/peak entries %d/%d, reference %d/%d", s.cached, s.PeakEntries(), ref.cached, ref.peakEntries)
	}
	if s.cachedColumns() != len(ref.cols) {
		return fmt.Errorf("%d cached columns, reference %d", s.cachedColumns(), len(ref.cols))
	}
	return nil
}

// State and the reference, driven through the same random sequence of
// Extend, Solve and Immune calls on random fixtures (Euclidean and L1
// kernels), agree bit for bit after every call, with a serial pool and with
// a parallel one whose gates are forced open. State evaluates no more
// kernels than the reference, and strictly fewer over the run.
func TestStateMatchesReference(t *testing.T) {
	lowerParGates(t)
	kernels := []affinity.Kernel{{K: 1, P: 2}, {K: 0.7, P: 1}}
	for _, pool := range []*par.Pool{nil, par.New(4)} {
		for fixture := 0; fixture < 12; fixture++ {
			k := kernels[fixture%len(kernels)]
			label := fmt.Sprintf("workers=%d fixture=%d p=%v", pool.Workers(), fixture, k.P)
			rng := rand.New(rand.NewSource(int64(100 + fixture)))
			n := 80 + rng.Intn(200)
			pts := make([][]float64, n)
			for i := range pts {
				c := float64(rng.Intn(4))
				pts[i] = []float64{c*5 + rng.NormFloat64(), c*5 + rng.NormFloat64(), rng.NormFloat64()}
			}
			o, ro := mustOracle(t, pts, k), mustOracle(t, pts, k)
			seed := rng.Intn(n)
			s, err := NewState(o, seed)
			if err != nil {
				t.Fatal(err)
			}
			s.SetPool(pool)
			ref := newRefState(ro, seed)
			check := func(call string) {
				t.Helper()
				if err := sameAsRef(s, ref); err != nil {
					t.Fatalf("%s after %s: %v", label, call, err)
				}
				if o.Computed() > ro.Computed() {
					t.Fatalf("%s after %s: %d kernel evaluations, reference %d", label, call, o.Computed(), ro.Computed())
				}
			}
			check("NewState")
			order := rng.Perm(n)
			for len(order) > 0 {
				take := min(len(order), 1+rng.Intn(60))
				chunk := order[:take]
				order = order[take:]
				// Re-offer a few ids already in β: Extend must skip them.
				for i := 0; i < 3 && i < len(s.beta); i++ {
					chunk = append(chunk, s.beta[rng.Intn(len(s.beta))])
				}
				if got, want := s.Extend(chunk), ref.extend(chunk); got != want {
					t.Fatalf("%s: Extend added %d, reference %d", label, got, want)
				}
				check("Extend")
				maxIter := 1 + rng.Intn(300)
				got, err := s.Solve(context.Background(), maxIter, 1e-9)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.solve(maxIter, 1e-9); got != want {
					t.Fatalf("%s: Solve ran %d iterations, reference %d", label, got, want)
				}
				check("Solve")
				cands := order[:min(len(order), 70)]
				if got, want := s.Immune(cands, 1e-7), ref.immune(cands, 1e-7); got != want {
					t.Fatalf("%s: Immune = %v, reference %v", label, got, want)
				}
				check("Immune")
				if err := s.Sanity(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			got, _ := s.Solve(context.Background(), 5000, 1e-12)
			if want := ref.solve(5000, 1e-12); got != want {
				t.Fatalf("%s: final Solve ran %d iterations, reference %d", label, got, want)
			}
			check("final Solve")
			if o.Computed() >= ro.Computed() {
				t.Fatalf("%s: %d kernel evaluations, reference %d: no column was reused", label, o.Computed(), ro.Computed())
			}
			if ref.infections == 0 || ref.immunizations == 0 {
				t.Fatalf("%s: %d infections, %d immunizations: a Step branch went unchecked", label, ref.infections, ref.immunizations)
			}
		}
	}
}
