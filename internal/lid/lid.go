// Package lid implements Localized Infection Immunization Dynamics, Step 1 of
// ALID (Section 4.1, Algorithm 1 of the paper).
//
// LID runs the infection-immunization game restricted to a local range β of
// the global affinity graph, maintaining the invariant pair
//
//	[ x , g = A_{βα}·x_α ]
//
// where α = supp(x). Each iteration selects the vertex with the strongest
// payoff deviation (Eq. 6/8), computes the optimal invasion share (Eq. 9) and
// updates both x (Eq. 13) and g (Eq. 14) in O(|β|) time: one selection
// scan, one pass that moves x and g together and clamps weight dust, and one
// that renormalizes x and accumulates π(x) for the next iteration. Only the
// columns A_{βi} that are actually touched are ever computed (the green
// parts of Fig. 3), which is what removes the O(n²) affinity-matrix cost.
//
// A is symmetric, and every kernel evaluates a_ij and a_ji bit-identically
// (see affinity.Oracle), so a new column reads a_ji back from the cached
// column of j wherever there is one and evaluates only the other rows. The
// reuse changes neither the values nor what is cached: every cached column
// still holds all |β| rows, so the cached-entry count, and with it the
// a*(a*+δ) space bound of Section 4.5, is the same as without it.
package lid

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"alid/internal/affinity"
	"alid/internal/par"
	"alid/internal/simplex"
)

// DefaultTolerance is the payoff-deviation threshold below which the local
// subgraph is declared immune against every vertex in β (γ_β(x) = ∅ up to
// numerics, Theorem 1).
const DefaultTolerance = 1e-7

// State is the LID working state over a dynamically grown local range.
type State struct {
	oracle *affinity.Oracle
	pool   *par.Pool // intra-detection fan-out; nil = serial

	beta []int   // global indices of the local range, order fixed
	pos  []int32 // caller-owned: global index -> position in beta, -1 outside

	x  []float64 // vertex weights over beta positions (a point of Δ^|β|)
	g  []float64 // g[r] = Σ_{i∈α} a_{beta[r],beta[i]}·x[i]
	pi float64   // π(x), accumulated by the last Step's renormalization pass

	// colAt[p] is the cached column A_{β,beta[p]} over all beta rows, nil
	// when there is none.
	colAt [][]float64

	// per-chunk scratch of the parallel paths (argmax partials, Extend tail
	// slab, Immune chunk flags and evaluation counts) and of column fills
	// and Extend (rows to evaluate, their positions and values, retained
	// column positions), reused across iterations
	argBest  []int
	argAbs   []float64
	argR     []float64
	tails    []float64
	infect   []bool
	evals    []int
	fillRows []int
	fillAt   []int
	fillVals []float64
	colPos   []int

	cached      int // cached submatrix entries: Σ len(colAt[p])
	peakEntries int // high-water mark of cached
	iterations  int // total LID iterations performed
}

// SetPool injects the intra-detection parallel pool. A nil pool (the
// default) keeps every scan serial. The pool only changes how the fixed
// chunks of each scan are scheduled, never what they compute: all results
// stay bit-identical to the serial path (see package par).
func (s *State) SetPool(p *par.Pool) { s.pool = p }

// NewState starts Algorithm 2's initialization: β = α = {seed}, x = s_seed,
// A_{βα}x_α = a_ss = 0. pos is the caller's dense position index over the
// oracle's ids: at least o.N() entries, every one -1. The state writes the
// β position of each id it takes in there, and Release sets those entries
// back to -1, so one index serves one state at a time.
func NewState(o *affinity.Oracle, seed int, pos []int32) (*State, error) {
	if seed < 0 || seed >= o.N() {
		return nil, fmt.Errorf("lid: seed %d out of range [0,%d)", seed, o.N())
	}
	if len(pos) < o.N() {
		return nil, fmt.Errorf("lid: position index holds %d ids, oracle %d", len(pos), o.N())
	}
	pos[seed] = 0
	s := &State{
		oracle: o,
		beta:   []int{seed},
		pos:    pos,
		x:      []float64{1},
		g:      []float64{0},
		colAt:  [][]float64{{0}},
		cached: 1,
	}
	s.trackPeak()
	return s, nil
}

// Release sets the position index entry of every β id back to -1, leaving
// the index ready for the caller's next state. The State must not be used
// afterwards.
func (s *State) Release() {
	for _, gidx := range s.beta {
		s.pos[gidx] = -1
	}
}

// at returns the β position of a global index, -1 when it is outside β
// (ids outside the position index included).
func (s *State) at(global int) int {
	if uint(global) >= uint(len(s.pos)) {
		return -1
	}
	return int(s.pos[global])
}

// Contains reports whether the global index is already in the local range β.
func (s *State) Contains(global int) bool { return s.at(global) >= 0 }

// Weight returns the current weight of a global index (0 if outside β).
func (s *State) Weight(global int) float64 {
	p := s.at(global)
	if p < 0 {
		return 0
	}
	return s.x[p]
}

// PeakEntries returns the high-water mark of cached A_{βα} entries, the
// quantity bounded by a*(a*+δ) in Section 4.5.
func (s *State) PeakEntries() int { return s.peakEntries }

// Density returns π(x) = Σ_{i∈α} x_i·g_i (Eq. 2 restricted to β), summed
// in ascending position order. Step accumulates it while it renormalizes x;
// Extend adds only zero-weight rows, so it stays valid across Extend.
func (s *State) Density() float64 { return s.pi }

// SupportWeights returns parallel slices of global indices and their weights,
// the (members, memberships) pair that defines the detected subgraph.
func (s *State) SupportWeights() ([]int, []float64) {
	var idx []int
	var w []float64
	for i, xi := range s.x {
		if xi > simplex.WeightEps {
			idx = append(idx, s.beta[i])
			w = append(w, xi)
		}
	}
	return idx, w
}

// Payoff returns π(s_j − x, x) = g_j − π(x) for the local position p.
func (s *State) payoff(p int, pi float64) float64 { return s.g[p] - pi }

// column returns the affinity column A_{β,beta[p]}, computing and caching
// it on first use (the dashed green column of Fig. 3). Row r is read back
// from the cached column of beta[r] when there is one (a_ij = a_ji bit for
// bit); the other rows are evaluated, fanned out over the pool in fixed row
// chunks when there are many.
func (s *State) column(p int) []float64 {
	if c := s.colAt[p]; c != nil {
		return c
	}
	c := make([]float64, len(s.beta))
	rows, at := s.fillRows[:0], s.fillAt[:0]
	for r, cr := range s.colAt {
		if cr != nil {
			c[r] = cr[p]
		} else {
			rows = append(rows, s.beta[r])
			at = append(at, r)
		}
	}
	vals := slices.Grow(s.fillVals[:0], len(rows))[:len(rows)]
	s.oracle.ColumnPar(s.pool, s.beta[p], rows, vals)
	for k, r := range at {
		c[r] = vals[k]
	}
	s.fillRows, s.fillAt, s.fillVals = rows, at, vals
	s.colAt[p] = c
	s.cached += len(c)
	s.trackPeak()
	return c
}

// stepGrain is the chunk size of the parallel vertex-selection scan and
// stepParMin the minimum |β| before it fans out. The per-position work is a
// handful of float operations, so fan-out only pays off for local ranges
// well past a chunk. These (and the gates below) are variables only so
// crosscheck tests can force the parallel paths on small fixtures; every
// per-chunk reduction here is chunking-invariant by construction, so they
// affect speed, never results.
var (
	stepGrain  = 4096
	stepParMin = 2 * 4096
)

// SetParGatesForTest overrides the fan-out grains/gates (crosscheck tests
// engage every parallel path on small fixtures with it) and returns a
// restore function. Results are identical at any setting; only scheduling
// changes. Test-only.
func SetParGatesForTest(stepGrainN, stepMin, extendMin, immuneMin int) func() {
	oldG, oldS, oldE, oldI := stepGrain, stepParMin, extendParMin, immuneParMin
	stepGrain, stepParMin, extendParMin, immuneParMin = stepGrainN, stepMin, extendMin, immuneMin
	return func() { stepGrain, stepParMin, extendParMin, immuneParMin = oldG, oldS, oldE, oldI }
}

// selectVertex runs the Eq. 6 argmax over positions [lo,hi): the strongest
// payoff deviation over C1 ∪ C2, first position winning ties (the serial
// scan's strictly-greater rule). Returns best = -1 when no deviation in the
// range exceeds tol. The scan compares |r| first and checks membership of
// C1 (r > 0) or C2 (r < 0 on a support vertex) only for a new maximum, so
// the common position costs one subtraction and one compare; r = ±0 and a
// NaN payoff are never selected, whatever tol is.
func (s *State) selectVertex(lo, hi int, pi, tol float64) (best int, bestAbs, bestR float64) {
	best, bestAbs = -1, tol
	for k, gp := range s.g[lo:hi] {
		p, r := lo+k, gp-pi
		if a := math.Abs(r); a > bestAbs && (r > 0 || (r < 0 && s.x[p] > simplex.WeightEps)) {
			best, bestAbs, bestR = p, a, r
		}
	}
	return best, bestAbs, bestR
}

// Step performs one LID iteration (Algorithm 1). It returns false when x is
// already immune against every vertex in β up to tol, i.e. γ_β(x) = ∅.
func (s *State) Step(tol float64) bool {
	pi := s.pi

	// Vertex selection, Eq. 6: argmax |π(s_i − x, x)| over C1 ∪ C2. For a
	// large β the scan runs as fixed chunks with per-chunk partial winners,
	// reduced serially in ascending chunk order — each chunk applies the same
	// first-wins tie rule, so the selected vertex is identical to the serial
	// scan at any worker count.
	var best int
	var bestAbs, bestR float64
	if n := len(s.beta); s.pool.Parallel() && n >= stepParMin {
		chunks := par.NumChunks(n, stepGrain)
		if cap(s.argBest) < chunks {
			s.argBest = make([]int, chunks)
			s.argAbs = make([]float64, chunks)
			s.argR = make([]float64, chunks)
		}
		cBest, cAbs, cR := s.argBest[:chunks], s.argAbs[:chunks], s.argR[:chunks]
		s.pool.ForChunks(n, stepGrain, func(c, lo, hi int) {
			cBest[c], cAbs[c], cR[c] = s.selectVertex(lo, hi, pi, tol)
		})
		best, bestAbs = -1, tol
		for c := 0; c < chunks; c++ {
			if cBest[c] >= 0 && cAbs[c] > bestAbs {
				best, bestAbs, bestR = cBest[c], cAbs[c], cR[c]
			}
		}
	} else {
		best, bestAbs, bestR = s.selectVertex(0, n, pi, tol)
	}
	if best < 0 {
		return false
	}
	s.iterations++

	col := s.column(best)
	// π(s_i − x) = a_ii − 2g_i + π(x) with a_ii = 0 (Eq. 11).
	piDiff := -2*s.g[best] + pi

	if bestR > 0 {
		// Infection with y = s_i: x ← x + ε(s_i − x), and Eq. 14,
		// g ← g + ε(A_{βi} − g).
		eps := simplex.InvasionShare(bestR, piDiff)
		s.invade(best, simplex.ClampShare(eps), eps, col)
	} else {
		// Immunization with the co-vertex y = s_i(x) (Eq. 7/12): the same
		// moves with the share scaled by µ.
		mu := simplex.CoVertexFactor(s.x[best])
		num := mu * bestR       // π(s_i(x) − x, x) > 0
		den := mu * mu * piDiff // π(s_i(x) − x)
		eps := simplex.InvasionShare(num, den)
		s.invade(best, simplex.ClampShare(eps)*mu, eps*mu, col)
	}
	return true
}

// invade moves x by x ← x + fx·(s_b − x) and g by g ← g + fg·(col − g) in
// one pass, then renormalizes x in a second, accumulating π(x) as it goes.
// fx is the share clamped to [0,1] (scaled by µ for a co-vertex), fg the
// unclamped one: exactly simplex.InvadeVertex or InvadeCoVertex, the Eq. 14
// g update and simplex.Clamp, in that order, followed by Density. Dust at or
// below WeightEps is zeroed so the support (and hence peeling and the ROI)
// stays exact.
func (s *State) invade(b int, fx, fg float64, col []float64) {
	x := s.x
	g, col := s.g[:len(x)], col[:len(x)]
	om := 1 - fx
	var sum float64
	for j, v := range x {
		v *= om
		if j == b {
			v += fx
		}
		g[j] += fg * (col[j] - g[j])
		if v <= simplex.WeightEps {
			x[j] = 0
			continue
		}
		x[j] = v
		sum += v
	}
	inv := 1.0
	if sum > 0 {
		inv = 1 / sum
	}
	var pi float64
	for j, v := range x {
		if v == 0 {
			continue
		}
		v *= inv
		x[j] = v
		if v > 0 {
			pi += v * g[j]
		}
	}
	s.pi = pi
}

// cancelCheckEvery is the amortized cadence of context checks inside Solve:
// one ctx.Err() load per this many LID iterations. An iteration is O(|β|)
// (microseconds), so cancellation latency stays well under a millisecond
// while the check cost is invisible; a pre-cancelled context is caught
// before the first iteration.
const cancelCheckEvery = 64

// Solve iterates Step until convergence, maxIter iterations, or context
// cancellation, returning the number of iterations executed. This is the
// "repeat Algorithm 1 until γ_β(x) = ∅ or t > T" loop of Section 4.1. The
// context is polled every cancelCheckEvery iterations so a MaxLID-sized
// budget cannot pin a cancelled detection; on cancellation the state remains
// valid (every completed Step left x on the simplex) but the returned error
// is non-nil and the solve is incomplete.
func (s *State) Solve(ctx context.Context, maxIter int, tol float64) (int, error) {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	n := 0
	for n < maxIter {
		if n%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		if !s.Step(tol) {
			break
		}
		n++
	}
	return n, nil
}

// Extend grows the local range with new global indices (the CIVS update
// β ← α ∪ ψ of Eq. 17): cached support columns gain rows for the new
// vertices, x gains zero weights, and g gains the rows (A_{ψα}x̂_α).
// Indices already in β, or repeated in newGlobal, are ignored. Columns
// cached for vertices that have left the support are dropped, keeping the
// cache within the a*(a*+δ) space bound of Section 4.5.
func (s *State) Extend(newGlobal []int) int {
	oldLen := len(s.beta)
	for _, gidx := range newGlobal {
		if s.pos[gidx] >= 0 {
			continue
		}
		s.pos[gidx] = int32(len(s.beta))
		s.beta = append(s.beta, gidx)
		s.x = append(s.x, 0)
		s.g = append(s.g, 0)
		s.colAt = append(s.colAt, nil)
	}
	s.dropNonSupportColumns()
	nf := len(s.beta) - oldLen
	if nf == 0 {
		return 0
	}
	// Extend the retained (support) columns with the new rows and accumulate
	// the new g entries: g_j = Σ_{i∈α} a_{j,i}·x_i for j ∈ ψ. Columns are
	// processed in ascending global index, the fixed floating-point
	// accumulation order that later vertex selections break ties on.
	colPos := s.colPos[:0]
	for p, c := range s.colAt[:oldLen] {
		if c != nil {
			colPos = append(colPos, p)
		}
	}
	slices.SortFunc(colPos, func(a, b int) int { return cmp.Compare(s.beta[a], s.beta[b]) })
	s.colPos = colPos
	// Phase 1 — fill: the A_{ψα} tail rows of every retained column land in a
	// per-column slab slot (chunk-owned writes, one column per chunk), so the
	// submatrix materialization fans out over the pool. Each slot's entries
	// depend only on its own (column, row) pairs — the slab content is
	// bit-identical however the chunks are scheduled.
	if need := len(colPos) * nf; cap(s.tails) < need {
		s.tails = make([]float64, need)
	}
	tails := s.tails[:len(colPos)*nf]
	newRows := s.beta[oldLen:]
	fill := func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			s.oracle.Column(s.beta[colPos[ci]], newRows, tails[ci*nf:(ci+1)*nf])
		}
	}
	if s.pool.Parallel() && len(colPos) > 1 && len(colPos)*nf >= extendParMin {
		s.pool.ForChunks(len(colPos), 1, func(_, lo, hi int) { fill(lo, hi) })
	} else {
		fill(0, len(colPos))
	}
	// Phase 2 — merge, serial: append each tail to its cached column (the
	// append may move it, so colAt takes the result) and accumulate g in
	// ascending column order, the exact floating-point order of the
	// pre-parallel implementation.
	for ci, p := range colPos {
		tail := tails[ci*nf : (ci+1)*nf]
		s.colAt[p] = append(s.colAt[p], tail...)
		if xi := s.x[p]; xi > 0 {
			for r := range tail {
				s.g[oldLen+r] += xi * tail[r]
			}
		}
	}
	s.cached += len(tails)
	s.trackPeak()
	return nf
}

// extendParMin is the minimum tail-slab size (in kernel evaluations) before
// Extend's fill fans out; below it the spawn cost outweighs the work.
var extendParMin = 2048

// dropNonSupportColumns releases cached columns for vertices outside the
// current support. Support columns must be kept: they are exactly A_{βα}.
func (s *State) dropNonSupportColumns() {
	for p, c := range s.colAt {
		if c != nil && s.x[p] <= simplex.WeightEps {
			s.colAt[p] = nil
			s.cached -= len(c)
		}
	}
}

func (s *State) trackPeak() { s.peakEntries = max(s.peakEntries, s.cached) }

// immuneGrain is the candidate-chunk size of the parallel immunity scan;
// each candidate costs O(|α|) kernel evaluations, so chunks stay small.
const immuneGrain = 32

// immuneParMin is the minimum candidate·support product before the immunity
// scan fans out.
var immuneParMin = 1 << 14

// Immune reports whether x is immune (payoff ≤ tol) against every vertex of
// the given global index set. Indices outside β are evaluated directly from
// the oracle in O(|α|) each without growing the cache: π(s_j, x) = Σ a_ji x_i.
//
// For large candidate sets the scan fans out in fixed chunks, each chunk
// recording an "infective found" flag and its kernel-evaluation count in its
// own slots and stopping early within its own range only; the verdict is the
// OR of the flags, read in chunk order. Chunks past the first infective one
// still run, but their evaluations are discarded work: the oracle is
// credited only with the counts of the chunks up to that one, which are
// exactly the evaluations the serial scan makes. Verdict and count are
// therefore identical to the serial scan at any worker count.
func (s *State) Immune(candidates []int, tol float64) bool {
	pi := s.Density()
	sup, w := s.SupportWeights()
	// infective returns the verdict for one candidate and the kernel
	// evaluations it took.
	infective := func(gidx int) (bool, int) {
		if p := s.at(gidx); p >= 0 {
			return s.payoff(p, pi) > tol, 0
		}
		var gj float64
		for t, i := range sup {
			gj += w[t] * s.oracle.Pair(gidx, i)
		}
		return gj-pi > tol, len(sup)
	}
	// scan checks candidates in order up to the first infective one.
	scan := func(cands []int) (found bool, evals int) {
		for _, gidx := range cands {
			inf, n := infective(gidx)
			evals += n
			if inf {
				return true, evals
			}
		}
		return false, evals
	}
	if s.pool.Parallel() && len(candidates) >= 2*immuneGrain && len(candidates)*len(sup) >= immuneParMin {
		chunks := par.NumChunks(len(candidates), immuneGrain)
		if cap(s.infect) < chunks {
			s.infect = make([]bool, chunks)
			s.evals = make([]int, chunks)
		}
		flags, evals := s.infect[:chunks], s.evals[:chunks]
		s.pool.ForChunks(len(candidates), immuneGrain, func(c, lo, hi int) {
			flags[c], evals[c] = scan(candidates[lo:hi])
		})
		total := 0
		for c, f := range flags {
			total += evals[c]
			if f {
				s.oracle.AddComputed(int64(total))
				return false
			}
		}
		s.oracle.AddComputed(int64(total))
		return true
	}
	found, n := scan(candidates)
	s.oracle.AddComputed(int64(n))
	return !found
}
