package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"alid/internal/core"
	"alid/internal/matrix"
)

// clusterDensity is the reference for eviction repair: π(x) = Σ_i Σ_j
// w_i·w_j·a_ij over the given support (a_ii = 0), summed pair by pair.
func (c *Clusterer) clusterDensity(members []int, weights []float64) float64 {
	o := c.det.Oracle()
	var pi float64
	for i := 1; i < len(members); i++ {
		for j := 0; j < i; j++ {
			pi += 2 * weights[i] * weights[j] * o.Pair(members[i], members[j])
		}
	}
	return pi
}

// Eviction repair updates an affected cluster's density from the rows of
// the members it loses. A retention-bounded stream without compaction runs
// until a whole matrix chunk of clustered points is released; after every
// commit and every manual evict, each cluster's density must match the
// direct sum over its support within 1e-12 and never be negative. The
// released chunk's rows are gone once the eviction that kills its last
// rows has tombstoned them, so a repair that read them afterwards would
// panic here.
//
// Arrivals are noise far from every blob, so no arrival re-converges a
// cluster or forms one: each commit's retention step repairs exactly the
// clusters the previous commit left, and the test can count what each of
// them lost.
func TestEvictRepairMatchesDirectDensity(t *testing.T) {
	const (
		window = 1200
		blobs  = 10
		tol    = 1e-12
	)
	rng := rand.New(rand.NewSource(29))
	initial := make([][]float64, window)
	for i := range initial {
		b := float64(i % blobs) // interleaved: every eviction window spans blobs
		initial[i] = []float64{20*b + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3}
	}
	cfg := streamConfig()
	cfg.BatchSize = 1 << 30
	cfg.Retention = Retention{MaxPoints: window}
	c, err := New(initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var worst float64
	check := func(when string) {
		t.Helper()
		for ci, cl := range c.clusters {
			want := c.clusterDensity(cl.Members, cl.Weights)
			if d := math.Abs(cl.Density - want); d > tol || cl.Density < 0 {
				t.Fatalf("%s: cluster %d (%d members) has density %v, direct sum %v", when, ci, len(cl.Members), cl.Density, want)
			} else {
				worst = max(worst, d)
			}
		}
		checkLabelClusterConsistency(t, c)
		checkClustersMeetThreshold(t, c)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.clusters) < blobs {
		t.Fatalf("initial commit found %d clusters, want ≥ %d", len(c.clusters), blobs)
	}
	check("initial commit")

	// Commits of 1, 16 and 40 arrivals evict as many of the oldest points,
	// so clusters lose one member or several at a time.
	var lostOne, lostSeveral, chunkRepairs int
	for k := 0; !c.mat.ChunkReleased(0); k++ {
		if k > 200 {
			t.Fatal("chunk 0 was never released")
		}
		before := c.Clusters()
		for i := 0; i < []int{1, 16, 40}[k%3]; i++ {
			p := []float64{1e4 + rng.Float64()*1e6, 1e4 + rng.Float64()*1e6}
			if err := c.Add(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		for _, cl := range before {
			lost, inChunk0 := 0, false
			for _, m := range cl.Members {
				if !c.mat.Live(m) {
					lost++
					inChunk0 = inChunk0 || m < matrix.ChunkRows
				}
			}
			if lost == 0 || lost == len(cl.Members) {
				continue
			}
			if lost == 1 {
				lostOne++
			} else {
				lostSeveral++
			}
			if inChunk0 && c.mat.ChunkReleased(0) {
				chunkRepairs++
			}
		}
		check("retention commit")
	}
	if lostOne == 0 || lostSeveral == 0 || chunkRepairs == 0 {
		t.Fatalf("coverage: %d repairs lost one member, %d several, %d read rows of the released chunk; want each > 0",
			lostOne, lostSeveral, chunkRepairs)
	}

	// All but one member of the largest cluster, under a cancelled context.
	// The repair's lone survivor has density 0, as the direct sum gives;
	// the evict stands without re-convergence, and its compact drops the
	// cluster, which now falls below the minimum size.
	bySize := c.Clusters()
	slices.SortStableFunc(bySize, func(a, b *core.Cluster) int { return len(b.Members) - len(a.Members) })
	if len(bySize) < 2 || len(bySize[1].Members) < 4 {
		t.Fatalf("need two clusters of ≥ 4 members, have %d clusters", len(bySize))
	}
	keep := heaviestMember(bySize[0])
	var ids []int
	for _, m := range bySize[0].Members {
		if m != keep {
			ids = append(ids, m)
		}
	}
	if alone, _ := c.repair(bySize[0], ids); len(alone.Members) != 1 || alone.Density != 0 {
		t.Fatalf("lone survivor: %d members, density %v; want 1 member, density 0", len(alone.Members), alone.Density)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Evict(cancelled, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("evict under a cancelled context: err = %v, want context.Canceled", err)
	}
	if l := c.assigned.At(keep); l != -1 {
		t.Fatalf("lone survivor %d still labeled %d after its cluster fell below the minimum size", keep, l)
	}
	check("evict all but one")

	// Most of the next cluster, again with the repair left standing, then
	// a live commit that drops or keeps what the repairs left.
	second := bySize[1]
	ids = slices.Clone(second.Members[:len(second.Members)*3/4])
	if _, err := c.Evict(cancelled, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("evict under a cancelled context: err = %v, want context.Canceled", err)
	}
	check("evict most of a cluster")
	if err := c.Add(ctx, []float64{-1e6, -1e6}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	check("commit after the manual evicts")
	t.Logf("%d repairs lost one member, %d several, %d read rows of the released chunk; largest |π − direct sum| %.2g",
		lostOne, lostSeveral, chunkRepairs, worst)
}
