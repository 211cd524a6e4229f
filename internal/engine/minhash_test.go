package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/minhash"
	"alid/internal/par"
	"alid/internal/snapshot"
)

var mhTestCfg = minhash.Config{Bands: 8, Rows: 4, Seed: 3}

func minhashEngineConfig() Config {
	c := core.DefaultConfig()
	c.Backend = "minhash"
	c.MinHash = mhTestCfg
	c.Kernel = affinity.Kernel{K: 2, Jaccard: true}
	c.DensityThreshold = 0.5
	c.Delta = 200
	return Config{Core: c, BatchSize: 25}
}

// communitySets builds near-duplicate element sets: each community shares a
// 30-element base and every member swaps one element for a community-local
// extra, giving pairwise Jaccard ≈ 0.87 inside a community and ≈ 0 across
// communities — the near-duplicate workload banded MinHash serves.
func communitySets(seed int64, community, n int) [][]string {
	rng := rand.New(rand.NewSource(seed + int64(community)*1000))
	base := make([]string, 30)
	for i := range base {
		base[i] = fmt.Sprintf("c%d-e%d", community, i)
	}
	sets := make([][]string, n)
	for i := range sets {
		s := append([]string(nil), base...)
		s[rng.Intn(len(s))] = fmt.Sprintf("c%d-x%d", community, rng.Intn(10))
		sets[i] = s
	}
	return sets
}

func communitySigs(t testing.TB, seed int64, community, n int) [][]float64 {
	t.Helper()
	sigs, err := minhash.Signatures(communitySets(seed, community, n), mhTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sigs
}

// The full minhash serving lifecycle: set ingest → commit → cluster →
// assign → evict → snapshot round-trip, with the restore refusing a
// dense-configured caller.
func TestMinHashEngineEndToEnd(t *testing.T) {
	ctx := context.Background()
	initial := append(communitySigs(t, 7, 0, 25), communitySigs(t, 7, 1, 25)...)
	e, err := New(minhashEngineConfig(), initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) < 2 {
		t.Fatalf("clusters = %d, want ≥ 2", len(e.Clusters()))
	}

	// Fresh near-duplicates of each community land in distinct clusters.
	p0 := communitySigs(t, 99, 0, 1)[0]
	p1 := communitySigs(t, 99, 1, 1)[0]
	a0, err := e.Assign(p0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := e.Assign(p1)
	if err != nil {
		t.Fatal(err)
	}
	if a0.Cluster < 0 || a1.Cluster < 0 || a0.Cluster == a1.Cluster {
		t.Fatalf("community probes: %+v vs %+v", a0, a1)
	}

	// Ingest a third community; after the commit its probe gets its own
	// cluster.
	if err := e.Ingest(ctx, communitySigs(t, 7, 2, 25)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p2 := communitySigs(t, 99, 2, 1)[0]
	a2, err := e.Assign(p2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Cluster < 0 || a2.Cluster == a0.Cluster || a2.Cluster == a1.Cluster {
		t.Fatalf("third community probe: %+v (vs %d, %d)", a2, a0.Cluster, a1.Cluster)
	}

	// Evict community 0 (ids 0..24): its probe loses its cluster, the others
	// keep answering.
	ids := make([]int, 25)
	for i := range ids {
		ids[i] = i
	}
	if n, err := e.Evict(ctx, ids); err != nil || n != 25 {
		t.Fatalf("Evict = %d, %v", n, err)
	}
	if st := e.Stats(); st.LiveN != 50 {
		t.Fatalf("live after evict = %d, want 50", st.LiveN)
	}
	g0, err := e.Assign(p0)
	if err != nil {
		t.Fatal(err)
	}
	if g0.Cluster >= 0 && g0.Infective {
		t.Fatalf("evicted community still infective: %+v", g0)
	}

	// Snapshot round trip: the restored engine answers bit-identically.
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{Backend: "minhash"})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, p := range [][]float64{p0, p1, p2} {
		want, err := e.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("restored assign differs: %+v vs %+v", got, want)
		}
	}

	// A dense-configured restore of a minhash snapshot is refused.
	if _, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{Backend: "lsh"}); !errors.Is(err, snapshot.ErrBackendMismatch) {
		t.Fatalf("lsh restore of minhash snapshot: err %v, want ErrBackendMismatch", err)
	}
}

// And the converse refusal: a dense snapshot under a minhash-configured
// restore.
func TestDenseSnapshotRefusesMinHashRestore(t *testing.T) {
	e, _ := blobEngine(t)
	defer e.Close()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreBytes(buf.Bytes(), ShardedLoadOptions{Backend: "minhash"}); !errors.Is(err, snapshot.ErrBackendMismatch) {
		t.Fatalf("minhash restore of dense snapshot: err %v, want ErrBackendMismatch", err)
	}
}

// Detection and serving answers are bit-identical at any Parallelism and
// GOMAXPROCS — the standing determinism invariant, now on the set backend.
func TestMinHashDeterministicAcrossParallelism(t *testing.T) {
	run := func(pool *par.Pool) ([]Assignment, []*core.Cluster) {
		cfg := minhashEngineConfig()
		cfg.Core.Pool = pool
		initial := append(communitySigs(t, 7, 0, 25), communitySigs(t, 7, 1, 25)...)
		e, err := New(cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ctx := context.Background()
		if err := e.Ingest(ctx, communitySigs(t, 7, 2, 25)); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Evict(ctx, []int{0, 3, 30, 51}); err != nil {
			t.Fatal(err)
		}
		var as []Assignment
		for c := 0; c < 3; c++ {
			for _, p := range communitySigs(t, 123, c, 5) {
				a, err := e.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				as = append(as, a)
			}
		}
		return as, e.Clusters()
	}

	prev := runtime.GOMAXPROCS(1)
	serialAssigns, serialClusters := run(nil)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parAssigns, parClusters := run(par.New(-1))
	runtime.GOMAXPROCS(prev)

	if len(serialAssigns) != len(parAssigns) {
		t.Fatalf("assign counts %d vs %d", len(serialAssigns), len(parAssigns))
	}
	for i := range serialAssigns {
		if serialAssigns[i] != parAssigns[i] {
			t.Fatalf("assign %d differs: %+v vs %+v", i, serialAssigns[i], parAssigns[i])
		}
	}
	if len(serialClusters) != len(parClusters) {
		t.Fatalf("cluster counts %d vs %d", len(serialClusters), len(parClusters))
	}
	for i := range serialClusters {
		sc, pc := serialClusters[i], parClusters[i]
		if sc.Density != pc.Density || len(sc.Members) != len(pc.Members) {
			t.Fatalf("cluster %d differs: %+v vs %+v", i, sc, pc)
		}
		for j := range sc.Members {
			if sc.Members[j] != pc.Members[j] || sc.Weights[j] != pc.Weights[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

// benchCommunitySigs is communitySigs at benchmark scale: nCommunities
// near-duplicate groups of size members each, signed under cfg.
func benchCommunitySigs(b *testing.B, nCommunities, size int) [][]float64 {
	b.Helper()
	sets := make([][]string, 0, nCommunities*size)
	for c := 0; c < nCommunities; c++ {
		sets = append(sets, communitySets(17, c, size)...)
	}
	sigs, err := minhash.Signatures(sets, minhash.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sigs
}

// BenchmarkAssignSet is BenchmarkAssign's counterpart on the set backend:
// parallel lock-free assigns of MinHash signatures against a published
// 10k-signature state (200 near-duplicate communities of 50) under the
// Jaccard kernel. Probes are fresh community variations, pre-signed outside
// the timer — the signing cost itself is BenchmarkMinHashSignature
// (internal/minhash). scripts/bench.sh records the ns/op into
// BENCH_PR9.json.
func BenchmarkAssignSet(b *testing.B) {
	const nCommunities = 200
	cfg := core.DefaultConfig()
	cfg.Backend = "minhash"
	cfg.MinHash = minhash.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: 2, Jaccard: true}
	cfg.DensityThreshold = 0.5
	cfg.Delta = 200
	e, err := New(Config{Core: cfg, BatchSize: 256}, benchCommunitySigs(b, nCommunities, 50))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if len(e.Clusters()) == 0 {
		b.Fatal("no clusters to serve")
	}

	queries := make([][]float64, 0, 1024)
	for c := 0; len(queries) < 1024; c++ {
		sigs, err := minhash.Signatures(communitySets(91, c%nCommunities, 8), minhash.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, sigs...)
	}
	queries = queries[:1024]

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Assign(queries[i&1023]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
