package alid

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"alid/internal/dataset"
	"alid/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/detectall_golden.json from this tree's DetectAll")

// detectAllGolden is one pinned DetectAll run: the mixture it ran on and
// what it returned.
type detectAllGolden struct {
	Regime string `json:"regime"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	// Digest is clusterDigest of the clusters in DetectAll's order.
	Digest   string `json:"digest"`
	Clusters int    `json:"clusters"`
	// Peak is Stats.PeakSubmatrixEntries and Evals Stats.AffinityComputed.
	Peak  int   `json:"peak_submatrix_entries"`
	Evals int64 `json:"affinity_computed"`
}

const goldenPath = "testdata/detectall_golden.json"

// DetectAll's output and work ledger are pinned per mixture: the cluster
// digest (members, weight bits and density bits, in order), the cluster
// count, the peak submatrix and the kernel-evaluation count, with
// AutoConfig's configuration at Parallelism 0 and -1. A change that moves
// any of them must rewrite the golden file (-update-golden) and say why.
func TestDetectAllGolden(t *testing.T) {
	if testutil.FusesMultiplyAdd() {
		t.Skip("the golden bits hold where x*y+z rounds twice; this build fuses multiply-adds, so detection rounds differently")
	}
	regimes := []dataset.Regime{dataset.RegimeEta, dataset.RegimeOmega, dataset.RegimeCap}
	var got []detectAllGolden
	for _, regime := range regimes {
		mc := dataset.DefaultMixtureConfig(10000, regime)
		mc.Seed = 3101
		ds, err := dataset.Mixture(mc)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := AutoConfig(ds.Points)
		if err != nil {
			t.Fatal(err)
		}
		var serial detectAllGolden
		for _, parallelism := range []int{0, -1} {
			cfg.Parallelism = parallelism
			det, err := NewDetector(ds.Points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := det.DetectAll(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := det.Stats()
			run := detectAllGolden{
				Regime:   regime.String(),
				N:        mc.N,
				Seed:     mc.Seed,
				Digest:   fmt.Sprintf("%016x", clusterDigest(cls)),
				Clusters: len(cls),
				Peak:     st.PeakSubmatrixEntries,
				Evals:    st.AffinityComputed,
			}
			if parallelism == 0 {
				serial = run
			} else if run != serial {
				t.Errorf("%s: Parallelism -1 gives %+v, Parallelism 0 %+v", run.Regime, run, serial)
			}
		}
		got = append(got, serial)
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []detectAllGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file holds %d runs, the test makes %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DetectAll on %s: got %+v, golden %+v", want[i].Regime, got[i], want[i])
		}
	}
}

// clusterDigest is FNV-64a over every cluster's size, members, weight bits
// and density bits, in order: perfbench's detect-batch cluster_digest. A
// cluster without weights hashes its members and density only.
func clusterDigest(cls []Cluster) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range cls {
		put(uint64(len(c.Members)))
		for i, m := range c.Members {
			put(uint64(m))
			if c.Weights != nil { // PALID's clusters carry no weights
				put(math.Float64bits(c.Weights[i]))
			}
		}
		put(math.Float64bits(c.Density))
	}
	return h.Sum64()
}

// DetectParallel's answer is pinned on the parcross fixture at Parallelism
// 0 and -1 and at 1 and 4 executors: a digest of the clusters (members and
// density bits, in order) and of Assign, plus the cluster and seed counts.
// A change that moves any of them changes PALID's answer.
func TestDetectParallelGolden(t *testing.T) {
	if testutil.FusesMultiplyAdd() {
		t.Skip("the golden bits hold where x*y+z rounds twice; this build fuses multiply-adds, so detection rounds differently")
	}
	type palidGolden struct {
		Digest          string
		Clusters, Seeds int
	}
	want := palidGolden{Digest: "05e0919ac34d7a77", Clusters: 68, Seeds: 423}
	pts := parcrossPoints()
	cfg, err := AutoConfig(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, -1} {
		for _, executors := range []int{1, 4} {
			cfg.Parallelism = parallelism
			res, err := DetectParallel(context.Background(), pts, cfg, ParallelOptions{Executors: executors})
			if err != nil {
				t.Fatal(err)
			}
			got := palidGolden{
				Digest:   fmt.Sprintf("%016x", parallelDigest(res)),
				Clusters: len(res.Clusters),
				Seeds:    res.Seeds,
			}
			if got != want {
				t.Errorf("Parallelism %d, Executors %d: got %+v, golden %+v", parallelism, executors, got, want)
			}
		}
	}
}

// parallelDigest is FNV-64a over clusterDigest of the clusters, then every
// point's entry of Assign.
func parallelDigest(res *ParallelResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], clusterDigest(res.Clusters))
	h.Write(b[:])
	for _, a := range res.Assign {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(a)))
		h.Write(b[:])
	}
	return h.Sum64()
}
