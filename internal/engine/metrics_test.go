//go:build !noobs

package engine

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"alid/internal/obs"
	"alid/internal/testutil"
)

// After real traffic (detect, assign single+batch, ingest, evict), the
// engine's registry must render every serving-pipeline metric family with
// non-trivial values. This is the end-to-end wiring check: a family missing
// here means an instrumentation call got dropped from a hot path.
func TestEngineMetricsFamilies(t *testing.T) {
	pts, _ := testutil.Blobs(57, [][]float64{{0, 0}, {12, 12}}, 200, 0.05, 20, -15, 20)
	reg := obs.NewRegistry()
	cfg := engineConfig()
	e, err := New(Config{Core: cfg.Core, BatchSize: cfg.BatchSize, Retention: cfg.Retention, Obs: reg}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The kernel-evaluation family has one series per path: commit work
	// (here the initial detection, then the ingest's commit) moves only the
	// commit series, assign scoring only the assign series, and together
	// they are Stats.AffinityComputed.
	render := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	evals := func() (commit, assign int64) {
		text := render()
		for _, p := range []struct {
			path string
			n    *int64
		}{{"commit", &commit}, {"assign", &assign}} {
			prefix := `alid_kernel_evals_total{path="` + p.path + `"} `
			i := strings.Index(text, "\n"+prefix)
			if i < 0 {
				t.Fatalf("exposition lacks %q", prefix)
			}
			line, _, _ := strings.Cut(text[i+1+len(prefix):], "\n")
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			*p.n = v
		}
		if total := e.Stats().AffinityComputed; total != commit+assign {
			t.Errorf("Stats.AffinityComputed = %d, want commit %d + assign %d", total, commit, assign)
		}
		return commit, assign
	}
	commit0, assign0 := evals()
	if commit0 == 0 || assign0 != 0 {
		t.Errorf("after the initial detection: commit %d, assign %d; want commit > 0, assign 0", commit0, assign0)
	}

	ctx := context.Background()
	queries := [][]float64{{0.1, -0.2}, {11.8, 12.3}, {6, 6}}
	for _, q := range queries {
		if _, err := e.Assign(q); err != nil {
			t.Fatal(err)
		}
	}
	commit1, assign1 := evals()
	if commit1 != commit0 || assign1 <= assign0 {
		t.Errorf("assigns moved commit %d → %d and assign %d → %d; want only assign to move", commit0, commit1, assign0, assign1)
	}
	if _, err := e.AssignBatch(queries); err != nil {
		t.Fatal(err)
	}
	commit2, assign2 := evals()
	if err := e.Ingest(ctx, [][]float64{{0.2, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	commit3, assign3 := evals()
	if commit3 <= commit2 || assign3 != assign2 {
		t.Errorf("ingest + Flush moved commit %d → %d and assign %d → %d; want only commit to move", commit2, commit3, assign2, assign3)
	}
	if _, err := e.Evict(ctx, []int{0}); err != nil {
		t.Fatal(err)
	}

	text := render()
	for _, family := range []string{
		"alid_assign_duration_seconds",
		"alid_assign_batch_points",
		"alid_assign_candidates",
		"alid_assign_cluster_scans_total",
		"alid_ingest_wait_seconds",
		"alid_commit_duration_seconds",
		"alid_commit_phase_seconds",
		"alid_commit_batch_points",
		"alid_view_publishes_total",
		"alid_evicted_points_total",
		"alid_points",
		"alid_clusters",
		"alid_assigns_total",
		"alid_ingested_points_total",
		"alid_commits_total",
		"alid_kernel_evals_total",
		"alid_lsh_segments",
		"alid_lsh_buckets",
		"alid_lsh_max_bucket_size",
	} {
		if !strings.Contains(text, "\n"+family) && !strings.HasPrefix(text, "# HELP "+family) {
			t.Errorf("family %s missing from exposition", family)
		}
	}
	// Spot-check values that must be non-zero after the traffic above.
	for _, needle := range []string{
		`alid_assign_duration_seconds_count{mode="single"} 3`,
		`alid_assign_duration_seconds_count{mode="batch"} 1`,
		"alid_assigns_total 6",
		"alid_ingested_points_total 1",
		"alid_evicted_points_total 1",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition lacks %q", needle)
		}
	}
}

// Stats' histogram-derived quantiles come from the same assign histogram
// and must be populated and ordered after traffic.
func TestStatsAssignQuantiles(t *testing.T) {
	pts, _ := testutil.Blobs(58, [][]float64{{0, 0}, {12, 12}}, 100, 0.05, 20, -15, 20)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 64; i++ {
		if _, err := e.Assign([]float64{0.1, -0.2}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.AssignP50 <= 0 || st.AssignP95 < st.AssignP50 || st.AssignP99 < st.AssignP95 {
		t.Fatalf("quantiles not populated/ordered: p50=%v p95=%v p99=%v",
			st.AssignP50, st.AssignP95, st.AssignP99)
	}
}

// A config recovered from a running engine must be reusable for a second
// engine: the self-created registry is never written back into the stored
// config, so restoring from an engine's own Config cannot double-register.
func TestConfigReusableAfterSelfRegistry(t *testing.T) {
	pts, _ := testutil.Blobs(59, [][]float64{{0, 0}, {12, 12}}, 50, 0.05, 20, -15, 20)
	e, err := New(engineConfig(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Obs() == nil {
		t.Fatal("engine did not self-create a registry")
	}
	if e.Config().Obs != nil {
		t.Fatal("self-created registry leaked into the stored config")
	}
	e2, err := New(e.Config(), pts) // would panic on duplicate registration
	if err != nil {
		t.Fatal(err)
	}
	e2.Close()
}

// A 1-shard router exports every series a plain engine exports, under the
// same names and labels — no shard label — so dashboards built on a
// plain engine keep working; the router's own families come alongside.
func TestShardedSingleShardKeepsEngineSeries(t *testing.T) {
	pts, _ := testutil.Blobs(57, [][]float64{{0, 0}, {12, 12}}, 200, 0.05, 20, -15, 20)
	series := func(reg *obs.Registry) map[string]bool {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, line := range strings.Split(b.String(), "\n") {
			// Which histogram buckets render depends on the timings
			// observed; a histogram's _sum and _count name its series.
			if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "_bucket{") {
				out[line[:strings.LastIndexByte(line, ' ')]] = true
			}
		}
		return out
	}
	cfg := engineConfig()
	cfg.Obs = obs.NewRegistry()
	e, err := New(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plain := series(cfg.Obs)
	cfg.Obs = obs.NewRegistry()
	s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	routed := series(cfg.Obs)
	for k := range plain {
		if !routed[k] {
			t.Errorf("1-shard router lacks series %s", k)
		}
	}
	for _, k := range []string{"alid_shards", `alid_ingest_queue_depth{shard="0"}`} {
		if !routed[k] {
			t.Errorf("1-shard router lacks router series %s", k)
		}
	}
}
