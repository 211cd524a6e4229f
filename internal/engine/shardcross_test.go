// Acceptance-gate crosscheck for the sharded serving layer: a Sharded(N)
// engine must answer BIT-IDENTICALLY to the deterministic merge of N
// standalone engines fed the router's routed subsets — same ingest and
// evict sequence, same flush boundaries — at every N, and Sharded(1) must
// be field-for-field identical to a plain Engine. The reference merge here
// re-states the documented rule independently (best score, ties to the
// lowest shard, cluster ids offset by the prefix sum of shard cluster
// counts, candidates summed), so the router's implementation is checked
// against the contract, not against itself.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"alid/internal/core"
	"alid/internal/testutil"
)

// shardBaselines builds N standalone engines with the same per-shard
// template the router uses (private registries — N engines can't share one
// without shard labels, which the baselines deliberately don't have).
func shardBaselines(t *testing.T, n int, initial [][]float64) []*Engine {
	t.Helper()
	subs := make([][][]float64, n)
	for k, p := range initial {
		subs[k%n] = append(subs[k%n], p)
	}
	out := make([]*Engine, n)
	for i := range out {
		e, err := New(engineConfig(), subs[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// refMerge is the independent restatement of the router's documented merge:
// per-shard answers in shard order, keep the strictly-best score (ties →
// lowest shard), translate the winner by the cluster-count prefix sum, sum
// the candidate diagnostics.
func refMerge(t *testing.T, baselines []*Engine, q []float64) Assignment {
	t.Helper()
	best := Assignment{Cluster: -1}
	bestShard := -1
	cands := 0
	off := 0
	for i, sh := range baselines {
		a, err := sh.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		cands += a.Candidates
		if a.Cluster >= 0 && (bestShard < 0 || a.Score > best.Score) {
			best = a
			best.Cluster = off + a.Cluster
			bestShard = i
		}
		off += len(sh.Clusters())
	}
	if bestShard < 0 {
		return Assignment{Cluster: -1, Candidates: cands}
	}
	best.Candidates = cands
	return best
}

// refClusters is the reference global cluster list: baseline clusters
// concatenated in shard order with member/seed ids mapped to local·N+shard.
func refClusters(baselines []*Engine) []*core.Cluster {
	n := len(baselines)
	var out []*core.Cluster
	for si, sh := range baselines {
		for _, cl := range sh.Clusters() {
			cp := *cl
			cp.Members = make([]int, len(cl.Members))
			for i, m := range cl.Members {
				cp.Members[i] = m*n + si
			}
			cp.Seed = cl.Seed*n + si
			out = append(out, &cp)
		}
	}
	return out
}

// checkShardedStage compares the sharded engine against its baselines at one
// traffic stage: single Assign vs the reference merge, AssignBatch vs its
// own per-query Assigns, the global cluster list, and the summed stats.
func checkShardedStage(t *testing.T, stage string, s *Sharded, baselines []*Engine, queries [][]float64) {
	t.Helper()
	assigned := 0
	for qi, q := range queries {
		got, err := s.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		want := refMerge(t, baselines, q)
		if got != want {
			t.Fatalf("%s: query %d: sharded %+v vs reference merge %+v", stage, qi, got, want)
		}
		if got.Cluster >= 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatalf("%s: no query was assigned — crosscheck is vacuous", stage)
	}

	// Batch answers check against TWO references: the router's own single-
	// point path (identical except Candidates — the batch pipeline counts
	// candidate clusters, the single path deduplicated candidate points, the
	// deliberate PR 6 difference), and the exact merge of the baselines' own
	// AssignBatch results (all fields, Candidates included).
	batch, err := s.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	refBatches := make([][]Assignment, len(baselines))
	for i, sh := range baselines {
		refBatches[i], err = sh.AssignBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
	}
	offs := make([]int, len(baselines)+1)
	for i, sh := range baselines {
		offs[i+1] = offs[i] + len(sh.Clusters())
	}
	for qi, q := range queries {
		single, err := s.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		bq, sq := batch[qi], single
		bq.Candidates, sq.Candidates = 0, 0
		if bq != sq {
			t.Fatalf("%s: query %d: batch %+v vs single %+v", stage, qi, batch[qi], single)
		}
		want := Assignment{Cluster: -1}
		bestShard := -1
		cands := 0
		for i := range baselines {
			a := refBatches[i][qi]
			cands += a.Candidates
			if a.Cluster >= 0 && (bestShard < 0 || a.Score > want.Score) {
				want = a
				want.Cluster = offs[i] + a.Cluster
				bestShard = i
			}
		}
		if bestShard < 0 {
			want = Assignment{Cluster: -1, Candidates: cands}
		} else {
			want.Candidates = cands
		}
		if batch[qi] != want {
			t.Fatalf("%s: query %d: batch %+v vs reference batch merge %+v", stage, qi, batch[qi], want)
		}
	}

	got, want := s.Clusters(), refClusters(baselines)
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters vs reference %d", stage, len(got), len(want))
	}
	for ci := range got {
		if got[ci].Density != want[ci].Density || got[ci].Seed != want[ci].Seed {
			t.Fatalf("%s: cluster %d: density/seed %v/%d vs %v/%d",
				stage, ci, got[ci].Density, got[ci].Seed, want[ci].Density, want[ci].Seed)
		}
		if len(got[ci].Members) != len(want[ci].Members) {
			t.Fatalf("%s: cluster %d sizes %d vs %d", stage, ci, len(got[ci].Members), len(want[ci].Members))
		}
		for j := range got[ci].Members {
			if got[ci].Members[j] != want[ci].Members[j] || got[ci].Weights[j] != want[ci].Weights[j] {
				t.Fatalf("%s: cluster %d member %d: %d/%v vs %d/%v", stage, ci, j,
					got[ci].Members[j], got[ci].Weights[j], want[ci].Members[j], want[ci].Weights[j])
			}
		}
	}

	st := s.Stats()
	var ref Stats
	for _, sh := range baselines {
		b := sh.Stats()
		ref.N += b.N
		ref.LiveN += b.LiveN
		ref.Clusters += b.Clusters
		ref.Commits += b.Commits
		ref.Evicted += b.Evicted
		ref.Ingested += b.Ingested
		if b.Dim > ref.Dim {
			ref.Dim = b.Dim
		}
	}
	if st.N != ref.N || st.LiveN != ref.LiveN || st.Clusters != ref.Clusters ||
		st.Commits != ref.Commits || st.Evicted != ref.Evicted ||
		st.Ingested != ref.Ingested || st.Dim != ref.Dim {
		t.Fatalf("%s: stats %+v vs baseline sums %+v", stage, st, ref)
	}
}

// runShardCrosscheck runs the shared traffic script: initial detection,
// three ingest waves (flushed per call so commit boundaries are
// deterministic on both sides — an unflushed queue lets the writer merge
// calls timing-dependently), then a batch of global-id evictions spanning
// every shard. procs > 0 builds the router under GOMAXPROCS = procs, which
// fixes its gather width, and restores GOMAXPROCS right after.
func runShardCrosscheck(t *testing.T, n, procs int) {
	ctx := context.Background()
	// Big enough that every shard of a 7-way split still detects clusters
	// (≈ 38 points per shard, ≈ 17 per blob per shard).
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 120, 0.3, 30, 0, 15)

	prev := runtime.GOMAXPROCS(procs)
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: n}, initial)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if procs > 0 && s.pool.Workers() != procs {
		t.Fatalf("gather width %d, want GOMAXPROCS %d", s.pool.Workers(), procs)
	}
	baselines := shardBaselines(t, n, initial)
	for _, sh := range baselines {
		defer sh.Close()
	}

	queries := crossQueries(90)
	checkShardedStage(t, "initial", s, baselines, queries)

	// Ingest waves: route each wave through the sharded engine AND mirror the
	// router's arrival→shard placement onto the baselines, flushing both
	// sides after every call.
	cursor := len(initial) // the router's round-robin placement cursor
	waves := [][][]float64{}
	w1, _ := testutil.Blobs(51, [][]float64{{-12, 8}}, 35, 0.3, 5, 0, 15)
	w2, _ := testutil.Blobs(52, [][]float64{{15, 15}, {0, 0}}, 12, 0.3, 8, 0, 15)
	w3, _ := testutil.Blobs(53, [][]float64{{30, -5}}, 28, 0.3, 0, 0, 15)
	waves = append(waves, w1, w2, w3)
	for wi, wave := range waves {
		if err := s.Ingest(ctx, wave); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		subs := make([][][]float64, n)
		for i, p := range wave {
			sh := (cursor + i) % n
			subs[sh] = append(subs[sh], p)
		}
		cursor += len(wave)
		for i, sh := range baselines {
			if len(subs[i]) == 0 {
				continue
			}
			if err := sh.Ingest(ctx, subs[i]); err != nil {
				t.Fatal(err)
			}
			if err := sh.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		queries = append(queries, []float64{-12, 8}, []float64{30, -5})
		checkShardedStage(t, fmt.Sprintf("wave %d", wi), s, baselines, queries)
	}

	// Evictions by global id, spanning every shard: global g lives on shard
	// g mod N as local g div N.
	evict := []int{2, 7, 11, 40, 41, 42, 43, 44, 45, 46, 61, 63, 80}
	gotN, err := s.Evict(ctx, evict)
	if err != nil {
		t.Fatal(err)
	}
	per := make([][]int, n)
	for _, g := range evict {
		per[g%n] = append(per[g%n], g/n)
	}
	wantN := 0
	for i, sh := range baselines {
		if len(per[i]) == 0 {
			continue
		}
		k, err := sh.Evict(ctx, per[i])
		if err != nil {
			t.Fatal(err)
		}
		wantN += k
	}
	if gotN != wantN {
		t.Fatalf("evicted %d, baselines evicted %d", gotN, wantN)
	}
	checkShardedStage(t, "post-evict", s, baselines, queries)
}

func TestShardedCrosscheckVsRoutedBaselines(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			runShardCrosscheck(t, n, 0)
		})
	}
}

// The gather width (GOMAXPROCS at construction) only schedules: width 1
// (inline) and width 4 must produce the same bit-identical answers the
// default width does.
func TestShardedCrosscheckGatherWidths(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("gather=%d", w), func(t *testing.T) {
			runShardCrosscheck(t, 4, w)
		})
	}
}

// Sharded(1) IS a plain engine behind the router: every Assign field,
// candidates included, plus clusters (zero-copy at N=1: the very same
// published pointers) and stats must match a plain Engine fed identically.
func TestShardedSingleShardMatchesEngine(t *testing.T) {
	ctx := context.Background()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 20, 0, 15)
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 1}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain, err := New(engineConfig(), initial)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	extra, _ := testutil.Blobs(54, [][]float64{{-9, -9}}, 25, 0.3, 5, 0, 15)
	for _, srv := range []Serving{s, plain} {
		if err := srv.Ingest(ctx, extra); err != nil {
			t.Fatal(err)
		}
		if err := srv.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Evict(ctx, []int{3, 5, 8, 60}); err != nil {
			t.Fatal(err)
		}
	}

	queries := append(crossQueries(120), []float64{-9, -9})
	for qi, q := range queries {
		a, err := s.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: sharded(1) %+v vs engine %+v", qi, a, b)
		}
	}
	ba, err := s.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := plain.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if ba[qi] != bb[qi] {
			t.Fatalf("batch query %d: sharded(1) %+v vs engine %+v", qi, ba[qi], bb[qi])
		}
	}

	sc, pc := s.Clusters(), plain.Clusters()
	if len(sc) != len(pc) {
		t.Fatalf("clusters %d vs %d", len(sc), len(pc))
	}
	for i := range sc {
		if sc[i].Density != pc[i].Density || sc[i].Seed != pc[i].Seed || len(sc[i].Members) != len(pc[i].Members) {
			t.Fatalf("cluster %d differs", i)
		}
	}
	ss, ps := s.Stats(), plain.Stats()
	if ss.N != ps.N || ss.LiveN != ps.LiveN || ss.Clusters != ps.Clusters ||
		ss.Commits != ps.Commits || ss.Evicted != ps.Evicted || ss.Dim != ps.Dim {
		t.Fatalf("stats %+v vs %+v", ss, ps)
	}
}

// Router-edge validation: a batch with any invalid point is rejected
// atomically with the engine's exact error wording — no shard sees a prefix
// and the round-robin cursor does not move (checked by routing parity with
// baselines after the failed call).
func TestShardedIngestAtomicValidation(t *testing.T) {
	ctx := context.Background()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 10, 0, 15)
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 3}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()

	bad := [][]float64{{1, 2}, {3, 4, 5}, {6, 7}}
	if err := s.Ingest(ctx, bad); err == nil {
		t.Fatal("ragged batch accepted")
	} else if want := "engine: point 1 has dimension 3, want 2"; err.Error() != want {
		t.Fatalf("error %q, want %q", err.Error(), want)
	}
	if err := s.Ingest(ctx, [][]float64{{1, 2}, {}}); err == nil {
		t.Fatal("empty point accepted")
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Ingested != st.Ingested || got.N != st.N || got.WriterErrors != 0 {
		t.Fatalf("rejected batches left residue: %+v vs %+v", got, st)
	}

	// The cursor did not advance on the failed calls: the next accepted
	// point must land exactly where an uninterrupted sequence puts it.
	baselines := shardBaselines(t, 3, initial)
	for _, sh := range baselines {
		defer sh.Close()
	}
	wave, _ := testutil.Blobs(55, [][]float64{{0, 0}}, 20, 0.3, 0, 0, 15)
	if err := s.Ingest(ctx, wave); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	cursor := len(initial)
	subs := make([][][]float64, 3)
	for i, p := range wave {
		subs[(cursor+i)%3] = append(subs[(cursor+i)%3], p)
	}
	for i, sh := range baselines {
		if len(subs[i]) > 0 {
			if err := sh.Ingest(ctx, subs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	checkShardedStage(t, "post-reject", s, baselines, crossQueries(60))
}

// NewSharded pre-validates the initial batch's dimensions atomically,
// mirroring stream.New — a ragged initial batch must never be partially
// committed across shards.
func TestNewShardedRejectsRaggedInitial(t *testing.T) {
	_, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 2},
		[][]float64{{1, 2}, {3, 4}, {5, 6, 7}})
	if err == nil {
		t.Fatal("ragged initial batch accepted")
	}
}
