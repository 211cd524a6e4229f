package matrix

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"alid/internal/vec"
)

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func TestFromRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randRows(rng, 7, 5)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 7 || m.D != 5 {
		t.Fatalf("shape %d×%d, want 7×5", m.N, m.D)
	}
	for i, r := range rows {
		got := m.Row(i)
		for j := range r {
			if got[j] != r[j] {
				t.Fatalf("row %d differs at %d", i, j)
			}
		}
		if want := vec.Dot(r, r); m.NormSq(i) != want {
			t.Fatalf("norm %d = %v, want %v", i, m.NormSq(i), want)
		}
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := FromRows([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-dimensional dataset accepted")
	}
}

// A row whose squared norm is not finite is refused by FromRows and FromFlat
// and reported by Finite: a NaN or ±Inf coordinate, and a finite row whose
// norm overflows, since its fused distances would be NaN. An adopted norm
// cache is restored state, taken as saved like FromChunks takes it.
func TestConstructorsRefuseNonFiniteRows(t *testing.T) {
	for _, bad := range [][]float64{{math.NaN(), 0}, {0, math.Inf(1)}, {math.Inf(-1), 0}, {1e200, 0}} {
		if Finite(bad) {
			t.Errorf("Finite(%v) = true", bad)
		}
		if _, err := FromRows([][]float64{{1, 2}, bad}); err == nil || !strings.Contains(err.Error(), "point 1") {
			t.Errorf("FromRows with %v: error %v, want one naming point 1", bad, err)
		}
		if _, err := FromFlat(append([]float64{1, 2}, bad...), 2, 2, nil); err == nil || !strings.Contains(err.Error(), "point 1") {
			t.Errorf("FromFlat with %v: error %v, want one naming point 1", bad, err)
		}
	}
	if !Finite([]float64{1e150, -1e150}) {
		t.Error("Finite refused a row whose squared norm is finite")
	}
	if m, err := FromFlat([]float64{1, 2, 1e200, 0}, 2, 2, []float64{5, math.Inf(1)}); err != nil || !math.IsInf(m.NormSq(1), 1) {
		t.Errorf("FromFlat did not adopt a saved +Inf norm: %v", err)
	}
}

func TestFromFlat(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := FromFlat(data, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Row(1)[0] != 3 || m.Row(2)[1] != 6 {
		t.Fatal("row slicing wrong")
	}
	if m.NormSq(0) != 5 {
		t.Fatalf("norm = %v, want 5", m.NormSq(0))
	}
	if _, err := FromFlat(data, 4, 2, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := FromFlat(data, 0, 2, nil); err == nil {
		t.Error("zero rows accepted")
	}
	// Given norms are adopted as the cache, not recomputed.
	m, err = FromFlat(data, 3, 2, []float64{7, 8, 9})
	if err != nil || m.NormSq(1) != 8 {
		t.Fatalf("adopted norm = %v (err %v), want 8", m.NormSq(1), err)
	}
	if _, err := FromFlat(data, 3, 2, []float64{1}); err == nil {
		t.Error("short norm cache accepted")
	}
}

func TestAppendRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.AppendRows([][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 || m.N != 3 {
		t.Fatalf("first=%d N=%d", first, m.N)
	}
	if m.NormSq(2) != 25 {
		t.Fatalf("appended norm = %v, want 25", m.NormSq(2))
	}
	if _, err := m.AppendRows([][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong dimension accepted")
	}
}

// The fused norms+dot distance must agree with the direct squared difference
// to floating-point cancellation accuracy.
func TestDistSqMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 20, 17)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := vec.SquaredL2(rows[i], rows[j])
			got := m.PairDistSq(i, j)
			if math.Abs(got-want) > 1e-10*(1+want) {
				t.Fatalf("PairDistSq(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
		q := rows[(i+1)%m.N]
		got := m.DistSq(i, q, vec.Dot(q, q))
		want := vec.SquaredL2(rows[i], q)
		if math.Abs(got-want) > 1e-10*(1+want) {
			t.Fatalf("DistSq(%d) = %v, want %v", i, got, want)
		}
	}
}

// Datasets offset far from the origin defeat the raw norms identity: the
// true squared distance drops below ulp(‖a‖²+‖b‖²) and the subtraction
// returns pure rounding noise. The CancelGuard fallback must hand these
// pairs to the exact difference form.
func TestDistSqFarFromOrigin(t *testing.T) {
	const base = 1e6
	rows := [][]float64{
		{base, base, base},
		{base + 1e-3, base, base},
		{base, base + 2, base},
	}
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows {
			want := vec.SquaredL2(rows[i], rows[j])
			got := m.PairDistSq(i, j)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("PairDistSq(%d,%d) = %v, want %v (cancellation)", i, j, got, want)
			}
		}
	}
	// The tiny-but-nonzero pair must not collapse to zero.
	if d := m.PairDistSq(0, 1); d <= 0 {
		t.Fatalf("distinct far-offset points collapsed to distance %v", d)
	}
	q := []float64{base + 0.5, base, base}
	for i := range rows {
		want := vec.SquaredL2(rows[i], q)
		got := m.DistSq(i, q, vec.Dot(q, q))
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("DistSq(%d) = %v, want %v (cancellation)", i, got, want)
		}
	}
}

func TestDistSqNonNegative(t *testing.T) {
	// Identical points: the identity cancels to ~0 and must clamp at 0.
	m, err := FromRows([][]float64{{0.1, 0.2, 0.3}, {0.1, 0.2, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.PairDistSq(0, 1); d < 0 {
		t.Fatalf("negative distance %v", d)
	}
	q := []float64{0.1, 0.2, 0.3}
	if d := m.DistSq(0, q, vec.Dot(q, q)); d < 0 {
		t.Fatalf("negative distance %v", d)
	}
}

func TestWeightedCentroid(t *testing.T) {
	m, err := FromRows([][]float64{{0, 0}, {2, 0}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := m.WeightedCentroid([]int{1, 2}, []float64{0.5, 0.5})
	if c[0] != 1 || c[1] != 2 {
		t.Fatalf("centroid = %v, want [1 2]", c)
	}
	if m.WeightedCentroid(nil, nil) != nil {
		t.Fatal("empty index set should give nil")
	}
}

// A matrix spanning several chunks must behave exactly like the row list it
// came from: rows, norms, appends and flat materialization all cross chunk
// boundaries transparently.
func TestChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2*ChunkRows + 517 // three chunks, partial tail
	rows := randRows(rng, n, 3)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DataChunks()) != 3 || len(m.NormChunks()) != 3 {
		t.Fatalf("chunk count %d/%d, want 3", len(m.DataChunks()), len(m.NormChunks()))
	}
	for _, i := range []int{0, ChunkRows - 1, ChunkRows, 2*ChunkRows - 1, 2 * ChunkRows, n - 1} {
		got := m.Row(i)
		for j := range rows[i] {
			if got[j] != rows[i][j] {
				t.Fatalf("row %d differs at %d", i, j)
			}
		}
		if want := vec.Dot(rows[i], rows[i]); m.NormSq(i) != want {
			t.Fatalf("norm %d = %v, want %v", i, m.NormSq(i), want)
		}
	}
	if got := m.DataChunks()[1]; len(got) != ChunkRows*3 || got[0] != rows[ChunkRows][0] {
		t.Fatal("chunk 1 does not start at row ChunkRows")
	}
	// Appends fill the tail then open a fourth chunk.
	extra := randRows(rng, ChunkRows, 3)
	if _, err := m.AppendRows(extra); err != nil {
		t.Fatal(err)
	}
	if m.N != n+ChunkRows || len(m.DataChunks()) != 4 {
		t.Fatalf("after append: N=%d chunks=%d", m.N, len(m.DataChunks()))
	}
	for k, r := range extra {
		if got := m.Row(n + k); got[0] != r[0] || got[2] != r[2] {
			t.Fatalf("appended row %d differs", k)
		}
	}
}

// Snapshot must freeze the matrix: appends to the live side (including ones
// that land in the then-partial tail chunk) never show through, and sealed
// chunks are shared, not copied.
func TestSnapshotIsolatesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := ChunkRows + 100
	rows := randRows(rng, n, 4)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if &snap.DataChunks()[0][0] != &m.DataChunks()[0][0] {
		t.Fatal("sealed chunk was copied, not shared")
	}
	if &snap.DataChunks()[1][0] == &m.DataChunks()[1][0] {
		t.Fatal("partial tail chunk is shared with the live matrix")
	}
	wantRow := append([]float64(nil), snap.Row(n-1)...)
	if _, err := m.AppendRows(randRows(rng, 2*ChunkRows, 4)); err != nil {
		t.Fatal(err)
	}
	if snap.N != n {
		t.Fatalf("snapshot grew: N=%d", snap.N)
	}
	for j, v := range wantRow {
		if snap.Row(n - 1)[j] != v {
			t.Fatal("snapshot tail mutated by live appends")
		}
	}
	// Divergent lineages: appending to the snapshot must not disturb the
	// live matrix either (restore-from-view takes this path).
	liveRow := append([]float64(nil), m.Row(n)...)
	if _, err := snap.AppendRows(randRows(rng, 50, 4)); err != nil {
		t.Fatal(err)
	}
	for j, v := range liveRow {
		if m.Row(n)[j] != v {
			t.Fatal("live matrix mutated by snapshot appends")
		}
	}
}

func TestFromChunksValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := FromRows(randRows(rng, ChunkRows+10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromChunks(m.DataChunks(), m.NormChunks(), m.N, m.D); err != nil {
		t.Fatal(err)
	}
	if _, err := FromChunks(m.DataChunks(), m.NormChunks(), m.N+1, m.D); err == nil {
		t.Error("accepted wrong N")
	}
	if _, err := FromChunks(m.DataChunks()[:1], m.NormChunks()[:1], m.N, m.D); err == nil {
		t.Error("accepted missing chunk")
	}
	if _, err := FromChunks(m.DataChunks(), m.NormChunks()[:1], m.N, m.D); err == nil {
		t.Error("accepted norm/data chunk mismatch")
	}
}

// The fused distance kernels must not allocate: they sit inside CIVS's
// per-iteration loop.
func TestDistSqAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := FromRows(randRows(rng, 100, 32))
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 32)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	qn := vec.Dot(q, q)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < m.N; i += 2 {
			sink += m.DistSq(i, q, qn) + m.PairDistSq(i, i+1)
		}
	})
	if allocs != 0 {
		t.Fatalf("DistSq/PairDistSq allocate %v per run, want 0", allocs)
	}
	_ = sink
}
