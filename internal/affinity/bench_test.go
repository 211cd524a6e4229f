package affinity

import (
	"math/rand"
	"testing"
)

func benchOracle(b *testing.B, n, dim int) *Oracle {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	o, err := NewOracle(pts, Kernel{K: 0.5, P: 2})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkColumn measures the lazy column computation at the heart of LID —
// the only affinity work ALID ever does.
func BenchmarkColumn(b *testing.B) {
	o := benchOracle(b, 1000, 100)
	rows := make([]int, 500)
	for i := range rows {
		rows[i] = i * 2
	}
	dst := make([]float64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Column(i%1000, rows, dst)
	}
}

// BenchmarkNewDense measures the full-matrix materialization the baselines
// pay (here n=1000: 10⁶ kernel evaluations).
func BenchmarkNewDense(b *testing.B) {
	o := benchOracle(b, 1000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDense(o)
	}
}

// BenchmarkDenseMulVec measures one replicator-dynamics sweep's core cost.
func BenchmarkDenseMulVec(b *testing.B) {
	o := benchOracle(b, 1000, 100)
	m := NewDense(o)
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 1 / float64(m.N)
	}
	dst := make([]float64, m.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

// BenchmarkSparseMulVec measures the SEA sweep cost on a ring graph of
// degree 40: each point lists its 20 successors and NewSparse symmetrizes.
func BenchmarkSparseMulVec(b *testing.B) {
	o := benchOracle(b, 1000, 100)
	lists := make([][]int, o.N())
	for i := range lists {
		for k := 1; k <= 20; k++ {
			lists[i] = append(lists[i], (i+k)%o.N())
		}
	}
	sp := NewSparse(o, lists)
	x := make([]float64, sp.N)
	for i := range x {
		x[i] = 1 / float64(sp.N)
	}
	dst := make([]float64, sp.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.MulVec(dst, x)
	}
}

// BenchmarkCandScan is the candidate-scan series: one cluster-sized weighted
// scan (96 rows, d=16 — the serving workload's average candidate) per op,
// through the batch pipeline's packed exact scorer (ScorePacked — fused scan
// + weighted sum).
func BenchmarkCandScan(b *testing.B) {
	const nr, d = 96, 16
	o := benchOracle(b, 4096, d)
	rng := rand.New(rand.NewSource(7))
	rows := make([]int, nr)
	w := make([]float64, nr)
	for i := range rows {
		rows[i] = rng.Intn(4096)
		w[i] = 1.0 / nr
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	qn := 0.0
	for _, x := range q {
		qn += x * x
	}
	packed := make([]float64, nr*d)
	norms := make([]float64, nr)
	for r, m := range rows {
		copy(packed[r*d:(r+1)*d], o.Mat.Row(m))
		norms[r] = o.Mat.NormSq(m)
	}
	col := make([]float64, nr)

	b.Run("exact", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += o.ScorePacked(q, qn, packed, norms, w, col)
		}
		_ = sink
	})
}
