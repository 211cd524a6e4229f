package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/testutil"
	"alid/internal/vec"
)

func engineConfig() Config {
	c := core.DefaultConfig()
	c.Kernel = affinity.Kernel{K: 0.3, P: 2}
	c.LSH = lsh.Config{Projections: 6, Tables: 10, R: 4, Seed: 1}
	c.Delta = 200
	return Config{Core: c, BatchSize: 50}
}

func blobEngine(t testing.TB) (*Engine, [][]float64) {
	t.Helper()
	pts, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 20, 0, 15)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return e, pts
}

// The ingest edge refuses what the writer refuses: a point holding NaN or
// ±Inf, and a finite point whose squared norm overflows. An edge that let
// the overflowing point through would answer success while the writer
// dropped it, moving every later point's id down by one. On a plain engine
// and on routers of 1 and 4 shards, each refusal names the offending
// index, assign refuses the same points, and after the refusals the k-th
// accepted point still has global id k.
func TestIngestRefusesNonFinitePoint(t *testing.T) {
	ctx := context.Background()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 10, 0, 15)
	wave, _ := testutil.Blobs(55, [][]float64{{0, 0}}, 20, 0.3, 0, 0, 15)
	all := append(slices.Clone(initial), wave...)
	type servingEngine interface {
		Ingest(context.Context, [][]float64) error
		Assign([]float64) (Assignment, error)
		Flush(context.Context) error
		Stats() Stats
		Close() error
	}
	build := map[string]func() (servingEngine, func(id int) []float64, error){
		"engine": func() (servingEngine, func(int) []float64, error) {
			e, err := New(engineConfig(), initial)
			return e, func(id int) []float64 { return e.View().Mat.Row(id) }, err
		},
	}
	for _, n := range []int{1, 4} {
		build[fmt.Sprintf("shards=%d", n)] = func() (servingEngine, func(int) []float64, error) {
			s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: n}, initial)
			return s, func(id int) []float64 { return s.shards[id%n].View().Mat.Row(id / n) }, err
		}
	}
	for name, fn := range build {
		e, row, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, bad := range [][]float64{{math.NaN(), 0}, {0, math.Inf(-1)}, {1e200, 0}} {
			if err := e.Ingest(ctx, [][]float64{wave[0], bad}); err == nil || !strings.Contains(err.Error(), "point 1") {
				t.Errorf("%s: Ingest of %v: error %v, want one naming point 1", name, bad, err)
			}
			if _, err := e.Assign(bad); err == nil {
				t.Errorf("%s: Assign accepted %v", name, bad)
			}
		}
		if err := e.Ingest(ctx, wave); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.N != len(all) || st.WriterErrors != 0 {
			t.Errorf("%s: n %d, writer errors %d; want %d, 0", name, st.N, st.WriterErrors, len(all))
		}
		for id, p := range all {
			if !slices.Equal(row(id), p) {
				t.Fatalf("%s: id %d holds %v, want %v", name, id, row(id), p)
			}
		}
	}
}

func TestEngineServesInitialDetection(t *testing.T) {
	e, pts := blobEngine(t)
	defer e.Close()
	cls := e.Clusters()
	if len(cls) < 2 {
		t.Fatalf("clusters = %d, want ≥ 2", len(cls))
	}
	if st := e.Stats(); st.N != len(pts) || st.Dim != 2 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A query at a blob center must land in the cluster covering that blob,
	// infectively; the two centers must land in different clusters.
	a0, err := e.Assign([]float64{0.05, -0.02})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := e.Assign([]float64{15.03, 14.96})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range []Assignment{a0, a1} {
		if a.Cluster < 0 {
			t.Fatalf("center query %d unassigned: %+v", i, a)
		}
		if !a.Infective {
			t.Fatalf("center query %d not infective: %+v", i, a)
		}
		if a.Score <= 0 || a.Score > 1 {
			t.Fatalf("center query %d score out of range: %+v", i, a)
		}
	}
	if a0.Cluster == a1.Cluster {
		t.Fatalf("both centers assigned to cluster %d", a0.Cluster)
	}

	// A far-away query shares no bucket (or at least must not be infective).
	far, err := e.Assign([]float64{500, -500})
	if err != nil {
		t.Fatal(err)
	}
	if far.Cluster != -1 && far.Infective {
		t.Fatalf("far query infective: %+v", far)
	}
}

// Assign's score must equal the definitional π-affinity Σ w_t·a(q, s_t)
// against the winning cluster, bit-for-bit with the oracle's column kernel.
func TestAssignScoreMatchesDefinition(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	v := e.View()
	o, err := affinity.NewOracleMatrix(v.Mat, e.Config().Core.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.21, -0.34}
	a, err := e.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster < 0 {
		t.Fatal("query unassigned")
	}
	cl := v.Clusters[a.Cluster]
	col := make([]float64, len(cl.Members))
	o.ColumnPoint(q, vec.Dot(q, q), cl.Members, col)
	var want float64
	for t, w := range cl.Weights {
		want += w * col[t]
	}
	if a.Score != want {
		t.Fatalf("score %v, want %v", a.Score, want)
	}
	if a.Density != cl.Density {
		t.Fatalf("density %v, want %v", a.Density, cl.Density)
	}
	// And no better-scoring cluster exists.
	for ci, other := range v.Clusters {
		if ci == a.Cluster {
			continue
		}
		col := make([]float64, len(other.Members))
		o.ColumnPoint(q, vec.Dot(q, q), other.Members, col)
		var s float64
		for t, w := range other.Weights {
			s += w * col[t]
		}
		if s > a.Score {
			t.Fatalf("cluster %d scores %v > winner %v", ci, s, a.Score)
		}
	}
}

// A zero-valued config must be serviceable: Kernel and LSH default at
// construction (the stream layer builds its index from the literal config,
// so leaving them zero used to fail the first commit and publish a state
// with a matrix but no index — which Assign then dereferenced).
func TestZeroConfigEngine(t *testing.T) {
	e, err := New(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	pts, _ := testutil.Blobs(91, [][]float64{{0, 0}}, 30, 0.05, 0, 0, 1)
	if err := e.Ingest(ctx, pts); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.N != len(pts) || st.WriterErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := e.Assign([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignEmptyEngine(t *testing.T) {
	e, err := New(engineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, err := e.Assign([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster != -1 {
		t.Fatalf("empty engine assigned: %+v", a)
	}
}

func TestAssignDimValidation(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	if _, err := e.Assign([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-width query accepted")
	}
	if _, err := e.Assign([]float64{math.NaN(), 0}); err == nil {
		t.Fatal("NaN query accepted")
	}
	if _, err := e.Assign([]float64{0, math.Inf(1)}); err == nil {
		t.Fatal("Inf query accepted")
	}
	if err := e.Ingest(context.Background(), [][]float64{{math.NaN(), 0}}); err == nil {
		t.Fatal("NaN ingest accepted")
	}
}

func TestIngestFlushAbsorbs(t *testing.T) {
	e, err := New(engineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	pts, _ := testutil.Blobs(7, [][]float64{{0, 0}}, 40, 0.3, 0, 0, 1)
	if err := e.Ingest(ctx, pts); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.N != len(pts) || st.Ingested != int64(len(pts)) || st.QueuedPoints != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if len(e.Clusters()) == 0 {
		t.Fatal("no cluster after ingest")
	}
	a, err := e.Assign([]float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster != 0 || !a.Infective {
		t.Fatalf("assign after ingest: %+v", a)
	}

	// Ingest-side dimension validation is at the API edge.
	if err := e.Ingest(ctx, [][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-width ingest accepted")
	}
	if err := e.Ingest(ctx, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged ingest accepted")
	}
}

func TestLabelsMatchClusters(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	labels := e.View().Labels.Flat()
	for ci, cl := range e.Clusters() {
		for _, m := range cl.Members {
			if labels[m] != ci {
				t.Fatalf("label[%d] = %d, want %d", m, labels[m], ci)
			}
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	e, _ := blobEngine(t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := e.Ingest(context.Background(), [][]float64{{1, 2}}); err == nil {
		t.Fatal("ingest after close accepted")
	}
	if err := e.Flush(context.Background()); err == nil {
		t.Fatal("flush after close accepted")
	}
	// Reads keep working on the final state.
	if a, err := e.Assign([]float64{0, 0}); err != nil || a.Cluster < 0 {
		t.Fatalf("assign after close: %+v, %v", a, err)
	}
}

// Close must commit points still buffered below the batch size.
func TestCloseFlushesBufferedPoints(t *testing.T) {
	cfg := engineConfig()
	cfg.BatchSize = 1000
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := testutil.Blobs(9, [][]float64{{0, 0}}, 30, 0.3, 0, 0, 1)
	if err := e.Ingest(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.N != len(pts) {
		t.Fatalf("N after close = %d, want %d", st.N, len(pts))
	}
}

// Single-point Assign must answer exactly the reference algorithm:
// candidate clusters from the published LSH index in first-seen order, each
// scored over its entire support, first strict maximum wins — bit-identical
// winner and score, on clusters larger than 64 members, on near-tie
// queries between two mirrored blobs, and on exact ties.
func TestAssignMatchesFullScan(t *testing.T) {
	pts, _ := testutil.Blobs(53, [][]float64{{0, 0}, {12, 12}}, 250, 0.05, 40, -20, 25)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	requireLargeCluster(t, e)
	tie := exactTieFixture(t)
	defer tie.e.Close()

	for _, fx := range []assignFixture{
		{"blobs", e, append(mixedQueries(pts, 150, 54), nearTieQueries(60, 55)...)},
		tie,
	} {
		t.Run(fx.name, func(t *testing.T) {
			fullAssign := fullScanOracle(t, fx.e)
			assigned := 0
			for qi, q := range fx.qs {
				a, err := fx.e.Assign(q)
				if err != nil {
					t.Fatal(err)
				}
				wantC, wantS := fullAssign(q)
				if a.Cluster != wantC {
					t.Fatalf("query %d: winner %d, full-scan winner %d", qi, a.Cluster, wantC)
				}
				if wantC >= 0 {
					assigned++
					if a.Score != wantS {
						t.Fatalf("query %d: score %v, full-scan score %v", qi, a.Score, wantS)
					}
				}
			}
			if assigned == 0 {
				t.Fatal("no query was assigned — crosscheck is vacuous")
			}
		})
	}
}

// allocFreeServers builds the servers whose assign paths must allocate
// nothing in steady state: a plain Engine and a one-shard Sharded router,
// which alidd serves at -shards 1.
func allocFreeServers(t *testing.T, pts [][]float64) map[string]Serving {
	t.Helper()
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return map[string]Serving{"Engine": e, "Sharded(1)": s}
}

// The assign path must stay allocation-free in steady state, through the
// one-shard router too.
func TestAssignAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	pts, _ := testutil.Blobs(57, [][]float64{{0, 0}, {12, 12}}, 200, 0.05, 20, -15, 20)
	queries := [][]float64{{0.1, -0.2}, {11.8, 12.3}, {6, 6}, {-14, 19}}
	for name, e := range allocFreeServers(t, pts) {
		for i := 0; i < 50; i++ { // warm the pooled scratch to steady capacity
			if _, err := e.Assign(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := e.Assign(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Assign allocates %v per call, want 0", name, allocs)
		}
	}
}

// QueuedPoints is exact: it never goes negative under concurrent ingest and
// settles at zero once everything is committed.
func TestQueuedPointsExact(t *testing.T) {
	e, err := New(engineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			q := e.Stats().QueuedPoints
			if q < 0 || q > 400 {
				t.Errorf("QueuedPoints = %d out of [0,400]", q)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 400; i++ {
		p := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if err := e.Ingest(ctx, [][]float64{p}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.QueuedPoints != 0 {
		t.Fatalf("QueuedPoints = %d after flush, want 0", st.QueuedPoints)
	}
	if st := e.Stats(); st.Ingested != 400 || st.N != 400 {
		t.Fatalf("stats after flush: %+v", st)
	}
}

// Scores are plain affinity sums: a query close to a cluster must outscore
// a farther query against the same cluster.
func TestAssignScoreMonotonicity(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	near, err := e.Assign([]float64{0.0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := e.Assign([]float64{0.0, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if near.Cluster < 0 {
		t.Fatal("near query unassigned")
	}
	if mid.Cluster >= 0 && mid.Cluster == near.Cluster && !(mid.Score < near.Score) {
		t.Fatalf("score not monotone: near=%v mid=%v", near.Score, mid.Score)
	}
	if math.IsNaN(near.Score) || math.IsInf(near.Score, 0) {
		t.Fatalf("non-finite score %v", near.Score)
	}
}
