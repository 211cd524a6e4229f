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
	// comparison can show it covered both branches of Step; ties counts the
	// steps whose winner shared its |r| with another C1 ∪ C2 position, so
	// one can show the first-position tie rule was exercised.
	infections, immunizations, ties int
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

// refSelect is the Eq. 6 scan written as a switch on the sign of
// r = g_p − π: C1 (r > 0) or C2 (r < 0 with x_p > WeightEps), where a
// strictly greater |r| than the best so far (initially tol) wins, so the
// first position wins a tie. State.selectVertex must pick the same
// position, |r| and r.
func refSelect(g, x []float64, pi, tol float64) (best int, bestAbs, bestR float64) {
	best, bestAbs = -1, tol
	for p := range g {
		r := g[p] - pi
		switch {
		case r > 0:
			if r > bestAbs {
				best, bestAbs, bestR = p, r, r
			}
		case r < 0 && x[p] > simplex.WeightEps:
			if -r > bestAbs {
				best, bestAbs, bestR = p, -r, r
			}
		}
	}
	return best, bestAbs, bestR
}

func (s *refState) step(tol float64) bool {
	pi := s.density()
	best, bestAbs, bestR := refSelect(s.g, s.x, pi, tol)
	if best < 0 {
		return false
	}
	for p := best + 1; p < len(s.g); p++ {
		r := s.g[p] - pi
		if math.Abs(r) == bestAbs && (r > 0 || (r < 0 && s.x[p] > simplex.WeightEps)) {
			s.ties++
			break
		}
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
// kernels than the reference, and strictly fewer over the run. In the last
// fixture three points in four repeat an earlier one: copies that enter β
// in one Extend carry equal g bits while outside the support, so exact
// ties in |r| reach Step's selection.
func TestStateMatchesReference(t *testing.T) {
	lowerParGates(t)
	kernels := []affinity.Kernel{{K: 1, P: 2}, {K: 0.7, P: 1}}
	const dupFixture = 12
	for _, pool := range []*par.Pool{nil, par.New(4)} {
		for fixture := 0; fixture <= dupFixture; fixture++ {
			k := kernels[fixture%len(kernels)]
			label := fmt.Sprintf("workers=%d fixture=%d p=%v", pool.Workers(), fixture, k.P)
			rng := rand.New(rand.NewSource(int64(100 + fixture)))
			n := 80 + rng.Intn(200)
			pts := make([][]float64, n)
			for i := range pts {
				if fixture == dupFixture && i > 0 && rng.Intn(4) != 0 {
					pts[i] = pts[rng.Intn(i)]
					continue
				}
				c := float64(rng.Intn(4))
				pts[i] = []float64{c*5 + rng.NormFloat64(), c*5 + rng.NormFloat64(), rng.NormFloat64()}
			}
			o, ro := mustOracle(t, pts, k), mustOracle(t, pts, k)
			seed := rng.Intn(n)
			s, err := NewState(o, seed, freshPos(o.N()))
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
			if fixture == dupFixture && ref.ties == 0 {
				t.Fatalf("%s: no step selected among tied payoffs: the tie rule went unchecked", label)
			}
		}
	}
}

// selectVertex picks the position, |r| and r the switch-form scan picks,
// bit for bit, on payoffs built to sit on each edge of the rule: r = +0 and
// r = −0 (at tol −1 both pass the |r| > tol test and must still lose, as
// they belong to neither C1 nor C2), a NaN in g, a weight exactly at
// WeightEps and the next float above it, and equal |r| on a C1 and a C2
// position in both orders (the first wins). Every case runs at tol 1e-7,
// 0 and −1, over the whole range and over the range without its first
// position, as a chunk of the parallel scan sees it.
func TestSelectVertexMatchesSwitchForm(t *testing.T) {
	const pi = 0.5
	eps := simplex.WeightEps
	above := math.Nextafter(eps, 1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		g, x []float64
		pi   float64
	}{
		{"r=+0 on a member", []float64{pi, pi}, []float64{0.5, 0.5}, pi},
		{"r=+0 outside the support", []float64{pi, pi - 1e-3}, []float64{0, 1}, pi},
		{"r=-0 on a member", []float64{negZero, negZero}, []float64{0.5, 0.5}, 0},
		{"r=-0 beside a weak member", []float64{negZero, -1e-9}, []float64{0.5, 0.5}, 0},
		{"NaN in g first", []float64{math.NaN(), pi + 0.1}, []float64{0.5, 0.5}, pi},
		{"NaN in g last", []float64{pi + 0.1, math.NaN()}, []float64{0.5, 0.5}, pi},
		{"only NaN", []float64{math.NaN(), math.NaN()}, []float64{0.5, 0.5}, pi},
		{"NaN π", []float64{pi, pi + 0.1}, []float64{0.5, 0.5}, math.NaN()},
		{"x at WeightEps", []float64{pi - 0.2, pi + 0.1}, []float64{eps, 1 - eps}, pi},
		{"x above WeightEps", []float64{pi - 0.2, pi + 0.1}, []float64{above, 1 - above}, pi},
		{"C1 then C2, equal |r|", []float64{pi + 0.125, pi - 0.125}, []float64{0, 1}, pi},
		{"C2 then C1, equal |r|", []float64{pi - 0.125, pi + 0.125}, []float64{1, 0}, pi},
		{"C2 at WeightEps then C1, equal |r|", []float64{pi - 0.125, pi + 0.125}, []float64{eps, 0}, pi},
		{"equal C1 pair", []float64{pi + 0.25, pi + 0.25, pi + 0.25}, []float64{1, 0, 0}, pi},
		{"below tol", []float64{pi + 1e-9, pi - 1e-9}, []float64{0.5, 0.5}, pi},
		{"single position", []float64{pi + 0.3}, []float64{1}, pi},
	}
	for _, tc := range cases {
		for _, tol := range []float64{1e-7, 0, -1} {
			s := &State{g: tc.g, x: tc.x}
			for lo := 0; lo < min(2, len(tc.g)); lo++ {
				best, bestAbs, bestR := s.selectVertex(lo, len(tc.g), tc.pi, tol)
				wBest, wAbs, wR := refSelect(tc.g[lo:], tc.x[lo:], tc.pi, tol)
				if wBest >= 0 {
					wBest += lo
				}
				if best != wBest || math.Float64bits(bestAbs) != math.Float64bits(wAbs) || math.Float64bits(bestR) != math.Float64bits(wR) {
					t.Errorf("%s, tol %v, from %d: selectVertex = (%d, %v, %v), switch form (%d, %v, %v)",
						tc.name, tol, lo, best, bestAbs, bestR, wBest, wAbs, wR)
				}
			}
		}
	}
}
