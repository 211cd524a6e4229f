package affinity

import (
	"math"
	"math/rand"
	"testing"

	"alid/internal/matrix"
	"alid/internal/vec"
)

// Oracle.Column is the innermost affinity operation of LID; it must stay
// allocation-free on the steady path (PR 1 regression guard).
func TestColumnAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 200)
	for i := range pts {
		p := make([]float64, 24)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	for _, kern := range []Kernel{{K: 0.5, P: 2}, {K: 0.5, P: 1}} {
		o, err := NewOracle(pts, kern)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, 100)
		for i := range rows {
			rows[i] = i * 2
		}
		dst := make([]float64, len(rows))
		allocs := testing.AllocsPerRun(50, func() {
			o.Column(7, rows, dst)
		})
		if allocs != 0 {
			t.Fatalf("p=%v: Column allocates %v per run, want 0", kern.P, allocs)
		}
	}
}

// The fused-identity column must agree with per-pair At evaluation — At and
// Column share the same p=2 kernel (lane order and cancellation fallback
// included), so the match is exact, even on far-offset data where the
// fallback triggers.
func TestColumnMatchesAt(t *testing.T) {
	for _, offset := range []float64{0, 1e6} {
		rng := rand.New(rand.NewSource(11))
		pts := make([][]float64, 60)
		for i := range pts {
			p := make([]float64, 9)
			for j := range p {
				p[j] = offset + rng.NormFloat64()*3
			}
			pts[i] = p
		}
		for _, kern := range []Kernel{{K: 1.3, P: 2}, {K: 0.8, P: 1}, {K: 1, P: 3}} {
			o, err := NewOracle(pts, kern)
			if err != nil {
				t.Fatal(err)
			}
			rows := []int{0, 17, 5, 5, 59, 31}
			dst := make([]float64, len(rows))
			for j := 0; j < len(pts); j += 13 {
				o.Column(j, rows, dst)
				for r, row := range rows {
					if want := o.At(row, j); dst[r] != want {
						t.Fatalf("offset %v p=%v: Column[%d] (row %d, col %d) = %v, At = %v",
							offset, kern.P, r, row, j, dst[r], want)
					}
				}
			}
		}
	}
}

// The fused norms+dot distance inside the oracle must agree with the direct
// [][]float64 kernel evaluation of the seed implementation — tightly for
// centered data, and within the CancelGuard accuracy bound for data offset
// far from the origin (where the raw identity would return garbage).
func TestFusedAffinityMatchesDirect(t *testing.T) {
	for _, offset := range []float64{0, 1e6} {
		rng := rand.New(rand.NewSource(13))
		pts := make([][]float64, 40)
		for i := range pts {
			p := make([]float64, 12)
			for j := range p {
				p[j] = offset + rng.NormFloat64()*2
			}
			pts[i] = p
		}
		kern := Kernel{K: 0.9, P: 2}
		o, err := NewOracle(pts, kern)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12
		if offset != 0 {
			tol = 1e-6
		}
		for i := range pts {
			for j := range pts {
				if i == j {
					continue
				}
				direct := kern.Affinity(pts[i], pts[j])
				fused := o.At(i, j)
				if math.Abs(fused-direct) > tol {
					t.Fatalf("offset %v: At(%d,%d) = %v, direct kernel = %v", offset, i, j, fused, direct)
				}
			}
		}
	}
}

// Every kernel evaluates a_ij and a_ji with the same operations on swapped
// operands, so Column(i,[j]), Column(j,[i]) and Pair(i,j) agree bit for bit
// (the LID state reads a_ji back from a cached column on that promise). For
// p = 2 the fixture mixes centered rows with rows near each other and far
// from the origin, where the fused identity falls back to SquaredL2; the
// Jaccard signatures hold integral minima and blended half-integers.
func TestKernelSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var dense [][]float64
	for i := 0; i < 40; i++ {
		offset, spread := 0.0, 3.0
		if i%2 == 1 {
			offset, spread = 1e6, 1e-3
		}
		p := make([]float64, 9)
		for j := range p {
			p[j] = offset + rng.NormFloat64()*spread
		}
		dense = append(dense, p)
	}
	var sigs [][]float64
	for i := 0; i < 40; i++ {
		s := make([]float64, 32)
		for j := range s {
			s[j] = float64(rng.Intn(4))
			if rng.Intn(5) == 0 {
				s[j] += 0.5
			}
		}
		sigs = append(sigs, s)
	}
	cases := []struct {
		name string
		pts  [][]float64
		k    Kernel
	}{
		{"p=2", dense, Kernel{K: 1.3, P: 2}},
		{"p=1", dense, Kernel{K: 0.8, P: 1}},
		{"p=3", dense, Kernel{K: 1, P: 3}},
		{"jaccard", sigs, Kernel{K: 2, Jaccard: true}},
	}
	for _, c := range cases {
		o := mustOracle(t, c.pts, c.k)
		fallbacks := 0
		var ij, ji [1]float64
		for i := range c.pts {
			for j := range c.pts {
				if i == j {
					continue
				}
				if c.k.P == 2 {
					ni, nj := o.Mat.NormSq(i), o.Mat.NormSq(j)
					if ni+nj-2*vec.Dot(o.Mat.Row(i), o.Mat.Row(j)) < matrix.CancelGuard*(ni+nj) {
						fallbacks++
					}
				}
				o.Column(j, []int{i}, ij[:])
				o.Column(i, []int{j}, ji[:])
				pair := o.Pair(i, j)
				if math.Float64bits(ij[0]) != math.Float64bits(ji[0]) || math.Float64bits(ij[0]) != math.Float64bits(pair) {
					t.Fatalf("%s: a(%d,%d): Column(%d,[%d]) = %v, Column(%d,[%d]) = %v, Pair = %v",
						c.name, i, j, j, i, ij[0], i, j, ji[0], pair)
				}
			}
		}
		if c.k.P == 2 && (fallbacks == 0 || fallbacks == len(c.pts)*(len(c.pts)-1)) {
			t.Fatalf("%s: %d of %d ordered pairs take the SquaredL2 fallback, want some but not all",
				c.name, fallbacks, len(c.pts)*(len(c.pts)-1))
		}
	}
}
