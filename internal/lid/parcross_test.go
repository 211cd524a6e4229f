package lid

import (
	"context"
	"math/rand"
	"testing"

	"alid/internal/affinity"
	"alid/internal/par"
)

// lowerParGates forces every parallel path in this package onto small
// fixtures (a 32-position step grain makes even a 260-vertex β fan out),
// restoring the production gates when the test ends. Gates affect only
// scheduling, never values — which is exactly what these crosschecks prove.
func lowerParGates(t *testing.T) {
	t.Helper()
	t.Cleanup(SetParGatesForTest(32, 64, 8, 8))
}

// runScript drives one State through the ALID usage pattern — extend in
// chunks, solve in between, immunity checks against outside vertices — and
// returns the final state for comparison.
func runScript(t *testing.T, o *affinity.Oracle, pool *par.Pool) (*State, []bool) {
	t.Helper()
	s, err := NewState(o, 0, freshPos(o.N()))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPool(pool)
	n := o.N()
	var immunities []bool
	for lo := 1; lo < n; lo += 40 {
		hi := min(lo+40, n)
		chunk := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, i)
		}
		s.Extend(chunk)
		if _, err := s.Solve(context.Background(), 500, 1e-9); err != nil {
			t.Fatal(err)
		}
		// Immunity against the not-yet-extended tail. The window must reach
		// 2·immuneGrain candidates (a const the gate hook cannot lower) or
		// the parallel scan never engages and this compares serial to serial.
		var outside []int
		for i := hi; i < min(hi+4*immuneGrain, n); i++ {
			outside = append(outside, i)
		}
		if len(outside) >= 2*immuneGrain {
			immunities = append(immunities, s.Immune(outside, 1e-7))
		}
	}
	if _, err := s.Solve(context.Background(), 2000, 1e-10); err != nil {
		t.Fatal(err)
	}
	return s, immunities
}

// The full LID state — β order, weights, g, cached columns, density — must
// be bit-identical between the serial path and any pool width: vertex
// selection reduces per-chunk winners in chunk order, Extend merges tails in
// sorted column order, and column fills are chunk-invariant. The oracle's
// kernel-evaluation count and the cached-entry accounting match too: the
// parallel immunity scan credits only the evaluations the serial scan makes.
func TestLIDCrosscheckSerialVsPool(t *testing.T) {
	lowerParGates(t)
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 260)
	for i := range pts {
		c := float64(i % 3)
		pts[i] = []float64{c*6 + rng.NormFloat64()*0.8, c*6 + rng.NormFloat64()*0.8, rng.NormFloat64() * 0.5}
	}
	o := mustOracle(t, pts, affinity.Kernel{K: 1, P: 2})

	serial, serialImm := runScript(t, o, nil)
	serialEvals := o.ResetComputed()
	infective := 0
	for _, immune := range serialImm {
		if !immune {
			infective++
		}
	}
	if len(serialImm) == 0 || infective == 0 {
		t.Fatalf("%d immunity checks at the parallel-scan size, %d infective — crosscheck is vacuous", len(serialImm), infective)
	}
	for _, workers := range []int{2, 4, 8} {
		got, gotImm := runScript(t, o, par.New(workers))
		if evals := o.ResetComputed(); evals != serialEvals {
			t.Fatalf("workers=%d: %d kernel evaluations, serial %d", workers, evals, serialEvals)
		}
		if got.PeakEntries() != serial.PeakEntries() || got.cached != serial.cached {
			t.Fatalf("workers=%d: peak/cached entries %d/%d, serial %d/%d", workers,
				got.PeakEntries(), got.cached, serial.PeakEntries(), serial.cached)
		}
		if len(got.beta) != len(serial.beta) || got.iterations != serial.iterations {
			t.Fatalf("workers=%d: len/iters %d/%d, serial %d/%d", workers, len(got.beta), got.iterations, len(serial.beta), serial.iterations)
		}
		if got.Density() != serial.Density() {
			t.Fatalf("workers=%d: density %v != serial %v", workers, got.Density(), serial.Density())
		}
		for p := range serial.beta {
			if got.beta[p] != serial.beta[p] {
				t.Fatalf("workers=%d: beta[%d] = %d, serial %d", workers, p, got.beta[p], serial.beta[p])
			}
			if got.x[p] != serial.x[p] {
				t.Fatalf("workers=%d: x[%d] = %v, serial %v", workers, p, got.x[p], serial.x[p])
			}
			if got.g[p] != serial.g[p] {
				t.Fatalf("workers=%d: g[%d] = %v, serial %v", workers, p, got.g[p], serial.g[p])
			}
		}
		if got.cachedColumns() != serial.cachedColumns() {
			t.Fatalf("workers=%d: %d cached columns, serial %d", workers, got.cachedColumns(), serial.cachedColumns())
		}
		for p, sc := range serial.colAt {
			gc := got.colAt[p]
			if (gc == nil) != (sc == nil) || len(gc) != len(sc) {
				t.Fatalf("workers=%d: column at %d missing or mis-sized", workers, p)
			}
			for r := range sc {
				if gc[r] != sc[r] {
					t.Fatalf("workers=%d: column at %d row %d = %v, serial %v", workers, p, r, gc[r], sc[r])
				}
			}
		}
		if len(gotImm) != len(serialImm) {
			t.Fatalf("workers=%d: %d immunity verdicts, serial %d", workers, len(gotImm), len(serialImm))
		}
		for i := range serialImm {
			if gotImm[i] != serialImm[i] {
				t.Fatalf("workers=%d: immunity verdict %d = %v, serial %v", workers, i, gotImm[i], serialImm[i])
			}
		}
		if err := got.Sanity(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
