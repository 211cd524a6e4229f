package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"alid/internal/eval"
	"alid/internal/server"
)

func msSamples(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(n-i) * time.Millisecond // descending: summarize must sort
	}
	return ds
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p      float64
		n      int
		beyond int
		ok     bool
		tail   float64
	}{
		{90, 100, 10, true, 90},
		{95, 100, 5, false, 0},
		{99, 1000, 10, true, 990},
		{99, 999, 9, false, 0},
		{99.9, 20000, 20, true, 19980},
		{50, 21, 10, true, 11},
	} {
		l, err := summarize(msSamples(c.n), c.p, time.Second)
		if (err == nil) != c.ok || l.Beyond != c.beyond || l.Tailms != c.tail {
			t.Errorf("p%g of %d: beyond %d tail %g err %v; want beyond %d tail %g ok %v",
				c.p, c.n, l.Beyond, l.Tailms, err, c.beyond, c.tail, c.ok)
		}
	}
}

func TestMedianOfSummary(t *testing.T) {
	l, _ := summarize(msSamples(4), 50, time.Second)
	if l.P50ms != 2.5 {
		t.Fatalf("median of 1..4 ms = %g, want 2.5", l.P50ms)
	}
}

func TestMedianRateIgnoresASlowWindow(t *testing.T) {
	// 200 requests 10 ms apart (100/s), except that one window of ten
	// requests stalls for a second.
	var ends []time.Duration
	at := time.Duration(0)
	for i := 0; i < 200; i++ {
		at += 10 * time.Millisecond
		if i == 50 {
			at += time.Second
		}
		ends = append(ends, at)
	}
	if got := medianRate(ends, 64); math.Abs(got-6400) > 1e-6 {
		t.Fatalf("median rate %g points/s, want 6400", got)
	}
}

// TestAVGFFromAssignAnswers scores a tiny labeled probe set: an answer counts
// as assigned only when infective, so noise probes near a cluster stay noise.
func TestAVGFFromAssignAnswers(t *testing.T) {
	labels := []int{0, 0, 1, 1, -1, -1}
	answers := []server.AssignResponse{
		{Cluster: 3, Infective: true},
		{Cluster: 3, Infective: true},
		{Cluster: 5, Infective: true},
		{Cluster: 5, Infective: false}, // near cluster 5 but not absorbed
		{Cluster: -1},
		{Cluster: 3, Infective: false},
	}
	pred := predicted(answers)
	want := []int{3, 3, 5, -1, -1, -1}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("predicted %v, want %v", pred, want)
		}
	}
	res, err := eval.Score(labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0: F1 1. Cluster 1: precision 1, recall 1/2, F1 2/3.
	if math.Abs(res.AVGF-(1+2.0/3)/2) > 1e-12 || res.NoiseFiltered != 1 || res.PositiveCovered != 0.75 {
		t.Fatalf("AVG-F %g noise_filtered %g positive_covered %g", res.AVGF, res.NoiseFiltered, res.PositiveCovered)
	}
}

func TestParseProm(t *testing.T) {
	c := parseProm([]byte(`# HELP alid_commits_total x
# TYPE alid_commits_total counter
alid_commits_total{shard="0"} 3
alid_commits_total{shard="1"} 4
alid_commit_phase_seconds_sum{phase="detect",shard="0"} 0.5
alid_commit_phase_seconds_count{phase="detect",shard="0"} 2
alid_commit_phase_seconds_sum{phase="dirty_check",shard="0"} 9
alid_commit_phase_seconds_count{phase="dirty_check",shard="0"} 1
alid_shards 4
`))
	if got := c.sum("alid_commits_total"); got != 7 {
		t.Errorf("commits %g, want 7", got)
	}
	if got := c.meanOf("alid_commit_phase_seconds", `phase="detect"`); got != 0.25 {
		t.Errorf("detect mean %g, want 0.25", got)
	}
	if got := c.sum("alid_shards"); got != 4 {
		t.Errorf("shards %g, want 4", got)
	}
}

// TestUnitsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark's declaration in step.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d declared", kind, len(got), len(want))
		}
		for _, m := range want {
			if got[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q here, %q declared", kind, m.Name, got[m.Name], m.Unit)
			}
		}
	}
	check("end_to_end", e2eUnits, decl.EndToEnd)
	check("per_layer", layerUnits, decl.PerLayer)
}
