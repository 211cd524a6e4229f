package affinity

import (
	"math/rand"
	"testing"

	"alid/internal/vec"
)

// ColumnPoint with a query equal to a dataset row must reproduce Column
// bit-identically everywhere except the diagonal (Column zeroes a_jj; an
// external duplicate legitimately scores 1).
func TestColumnPointMatchesColumnOnDatasetRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([][]float64, 90)
	for i := range pts {
		p := make([]float64, 7)
		for j := range p {
			p[j] = rng.NormFloat64() * 2
		}
		pts[i] = p
	}
	o, err := NewOracle(pts, Kernel{K: 0.7, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, o.N())
	for i := range rows {
		rows[i] = i
	}
	col := make([]float64, len(rows))
	ext := make([]float64, len(rows))
	for j := 0; j < o.N(); j += 13 {
		o.Column(j, rows, col)
		o.ColumnPoint(o.Mat.Row(j), o.Mat.NormSq(j), rows, ext)
		for r := range rows {
			if rows[r] == j {
				if ext[r] != 1 {
					t.Fatalf("self-affinity of external duplicate = %v, want 1", ext[r])
				}
				continue
			}
			if col[r] != ext[r] {
				t.Fatalf("row %d col %d: Column=%v ColumnPoint=%v", rows[r], j, col[r], ext[r])
			}
		}
	}
}

// An external (non-dataset) query must agree with the scalar kernel.
func TestColumnPointExternalQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := make([][]float64, 40)
	for i := range pts {
		p := make([]float64, 5)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	for _, k := range []Kernel{{K: 1, P: 2}, {K: 0.5, P: 1}} {
		o, err := NewOracle(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		q := []float64{0.3, -1.2, 0.8, 2.1, -0.4}
		rows := []int{0, 7, 13, 39, 2}
		dst := make([]float64, len(rows))
		o.ColumnPoint(q, vec.Dot(q, q), rows, dst)
		for r, row := range rows {
			want := k.Affinity(pts[row], q)
			got := dst[r]
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			// p=2 goes through the fused identity; allow 1-ulp-scale slack for
			// the non-fused reference, exactness is covered by the row test.
			if diff > 1e-12 {
				t.Fatalf("P=%v row %d: got %v want %v", k.P, row, got, want)
			}
		}
	}
}

// ColumnPoint counts kernel evaluations like every other oracle entry point.
func TestColumnPointCounts(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	o, err := NewOracle(pts, DefaultKernel())
	if err != nil {
		t.Fatal(err)
	}
	o.ResetComputed()
	dst := make([]float64, 3)
	o.ColumnPoint([]float64{0.5, 0.5}, 0.5, []int{0, 1, 2}, dst)
	if got := o.Computed(); got != 3 {
		t.Fatalf("computed = %d, want 3", got)
	}
}

// ColumnPointPacked must be bit-identical to ColumnPoint over packed copies
// of the same rows — random external queries plus a dataset-row query (the
// cancellation-guard fallback), both kernel branches, odd row count so the
// tail lane runs.
func TestColumnPointPackedMatchesGathered(t *testing.T) {
	for _, kern := range []Kernel{{K: 0.7, P: 2}, {K: 0.4, P: 1}} {
		o := randOracle(t, 44, 100, 7, kern)
		rows := []int{3, 99, 0, 41, 17, 58, 7}
		d := 7
		packed := make([]float64, len(rows)*d)
		norms := make([]float64, len(rows))
		for r, m := range rows {
			copy(packed[r*d:(r+1)*d], o.Mat.Row(m))
			norms[r] = o.Mat.NormSq(m)
		}
		rng := rand.New(rand.NewSource(45))
		qs := make([][]float64, 4)
		for i := range qs {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64() * 3
			}
			qs[i] = q
		}
		qs[0] = append([]float64(nil), o.Mat.Row(3)...)
		want := make([]float64, len(rows))
		got := make([]float64, len(rows))
		for qi, q := range qs {
			qn := vec.Dot(q, q)
			o.ColumnPoint(q, qn, rows, want)
			o.ColumnPointPacked(q, qn, packed, norms, got)
			for r := range rows {
				if got[r] != want[r] {
					t.Fatalf("P=%v query %d row %d: packed %v, gathered %v",
						kern.P, qi, r, got[r], want[r])
				}
			}
		}
	}
}

// ScorePacked must be bit-identical to ColumnPointPacked followed by a
// single-accumulator index-order weighted sum — the fusion may not perturb a
// single ulp, because the batch pipeline's scores must equal the sequential
// path's exactly. Same fixtures as the packed/gathered crosscheck.
func TestScorePackedMatchesColumnSum(t *testing.T) {
	for _, kern := range []Kernel{{K: 0.7, P: 2}, {K: 0.4, P: 1}} {
		o := randOracle(t, 46, 100, 7, kern)
		rows := []int{3, 99, 0, 41, 17, 58, 7}
		d := 7
		packed := make([]float64, len(rows)*d)
		norms := make([]float64, len(rows))
		w := make([]float64, len(rows))
		for r, m := range rows {
			copy(packed[r*d:(r+1)*d], o.Mat.Row(m))
			norms[r] = o.Mat.NormSq(m)
			w[r] = 1.0 / float64(3+r)
		}
		rng := rand.New(rand.NewSource(47))
		qs := make([][]float64, 4)
		for i := range qs {
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64() * 3
			}
			qs[i] = q
		}
		qs[0] = append([]float64(nil), o.Mat.Row(3)...)
		col := make([]float64, len(rows))
		scratch := make([]float64, len(rows))
		for qi, q := range qs {
			qn := vec.Dot(q, q)
			o.ColumnPointPacked(q, qn, packed, norms, col)
			var want float64
			for r := range col {
				want += w[r] * col[r]
			}
			got := o.ScorePacked(q, qn, packed, norms, w, scratch)
			if got != want {
				t.Fatalf("P=%v query %d: fused %v, column+sum %v", kern.P, qi, got, want)
			}
		}
	}
}

func randOracle(t *testing.T, seed int64, n, d int, k Kernel) *Oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 3
		}
		pts[i] = p
	}
	o, err := NewOracle(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	return o
}
