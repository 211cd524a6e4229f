package lid

import (
	"fmt"
	"math"
)

// Sanity verifies the state's invariants: x on the simplex, the position
// index the inverse of beta and -1 everywhere else, every cached column at
// its β position with len(β) rows and the oracle's values bit for bit, the
// cached-entry count their total, g consistent with a recomputation from
// scratch, and the carried π equal bit for bit to the density summed
// afresh. It is O(n + |β|·|α|) and meant for tests.
func (s *State) Sanity() error {
	for p, xi := range s.x {
		if xi < -1e-6 {
			return fmt.Errorf("lid: x off simplex (x[%d]=%v)", p, xi)
		}
	}
	if total := sum(s.x); !(math.Abs(total-1) <= 1e-6) {
		return fmt.Errorf("lid: x off simplex (sum=%v)", total)
	}
	for p, gidx := range s.beta {
		if int(s.pos[gidx]) != p {
			return fmt.Errorf("lid: position index inconsistent at %d", p)
		}
	}
	inBeta := 0
	for _, p := range s.pos {
		if p >= 0 {
			inBeta++
		}
	}
	if inBeta != len(s.beta) {
		return fmt.Errorf("lid: position index holds %d ids, β has %d", inBeta, len(s.beta))
	}
	if len(s.colAt) != len(s.beta) {
		return fmt.Errorf("lid: %d column slots for %d positions", len(s.colAt), len(s.beta))
	}
	entries := 0
	for p, c := range s.colAt {
		if c == nil {
			continue
		}
		if len(c) != len(s.beta) {
			return fmt.Errorf("lid: column at %d has %d rows, β has %d", p, len(c), len(s.beta))
		}
		for r, v := range c {
			if want := s.oracle.Pair(s.beta[r], s.beta[p]); v != want {
				return fmt.Errorf("lid: column at %d row %d = %v, oracle %v", p, r, v, want)
			}
		}
		entries += len(c)
	}
	if entries != s.cached {
		return fmt.Errorf("lid: %d cached entries counted, columns hold %d", s.cached, entries)
	}
	// Recompute g from scratch and compare.
	want := make([]float64, len(s.beta))
	for p, xi := range s.x {
		if xi <= 0 {
			continue
		}
		for r, rg := range s.beta {
			if r == p {
				continue
			}
			want[r] += xi * s.oracle.Kernel.Affinity(s.oracle.Mat.Row(rg), s.oracle.Mat.Row(s.beta[p]))
		}
	}
	for r := range want {
		if math.Abs(want[r]-s.g[r]) > 1e-6 {
			return fmt.Errorf("lid: g[%d] = %v, want %v", r, s.g[r], want[r])
		}
	}
	if fresh := freshDensity(s.x, s.g); math.Float64bits(fresh) != math.Float64bits(s.pi) {
		return fmt.Errorf("lid: carried π = %v, summed afresh %v", s.pi, fresh)
	}
	return nil
}

// freshDensity is π(x) = Σ_{x_i>0} x_i·g_i summed in ascending position
// order: the sum Step carries, and the reference's Density.
func freshDensity(x, g []float64) float64 {
	var pi float64
	for i, xi := range x {
		if xi > 0 {
			pi += xi * g[i]
		}
	}
	return pi
}

func sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// freshPos returns a position index for n ids with every entry -1: the
// scratch a detection's caller hands NewState.
func freshPos(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// cachedColumns counts the positions holding a cached column.
func (s *State) cachedColumns() int {
	n := 0
	for _, c := range s.colAt {
		if c != nil {
			n++
		}
	}
	return n
}
