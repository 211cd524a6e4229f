package eval

import (
	"math"
	"testing"
)

func TestF1(t *testing.T) {
	if got := F1(5, 5, 5); got != 1 {
		t.Errorf("perfect F1 = %v", got)
	}
	if got := F1(0, 5, 5); got != 0 {
		t.Errorf("empty intersection F1 = %v", got)
	}
	// P = 0.5, R = 1 → F1 = 2/3.
	if got := F1(5, 10, 5); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v, want 2/3", got)
	}
	if F1(0, 0, 0) != 0 {
		t.Error("degenerate F1 should be 0")
	}
}

func TestScorePerfect(t *testing.T) {
	truth := []int{0, 0, 1, 1, -1, -1}
	pred := []int{0, 0, 1, 1, -1, -1}
	r := mustScore(t, truth, pred)
	if r.AVGF != 1 {
		t.Errorf("AVGF = %v, want 1", r.AVGF)
	}
	if r.NoiseFiltered != 1 {
		t.Errorf("NoiseFiltered = %v, want 1", r.NoiseFiltered)
	}
	if r.PositiveCovered != 1 {
		t.Errorf("PositiveCovered = %v, want 1", r.PositiveCovered)
	}
}

func TestScoreLabelPermutationInvariant(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{7, 7, 2, 2} // different ids, same partition
	// Score infers cluster count from max id; ids need not be dense for
	// correctness of best-match F1.
	r := mustScore(t, truth, pred)
	if r.AVGF != 1 {
		t.Errorf("AVGF = %v, want 1 under relabeling", r.AVGF)
	}
}

func TestScorePartialMatch(t *testing.T) {
	// GT cluster 0 = {0,1,2,3}; detected cluster 0 = {0,1} → P=1, R=0.5, F1=2/3.
	truth := []int{0, 0, 0, 0}
	pred := []int{0, 0, -1, -1}
	r := mustScore(t, truth, pred)
	if math.Abs(r.AVGF-2.0/3) > 1e-12 {
		t.Errorf("AVGF = %v, want 2/3", r.AVGF)
	}
	if math.Abs(r.PositiveCovered-0.5) > 1e-12 {
		t.Errorf("PositiveCovered = %v, want 0.5", r.PositiveCovered)
	}
}

func TestScoreBestMatchChoosesBest(t *testing.T) {
	// GT cluster 0 overlaps two detected clusters; the larger-overlap one
	// must define its F1.
	truth := []int{0, 0, 0, 0, 0, 0}
	pred := []int{1, 1, 1, 1, 2, 2}
	r := mustScore(t, truth, pred)
	want := F1(4, 4, 6)
	if math.Abs(r.AVGF-want) > 1e-12 {
		t.Errorf("AVGF = %v, want %v", r.AVGF, want)
	}
}

func TestScoreNoiseAbsorption(t *testing.T) {
	// A detected cluster that swallows noise loses precision.
	truth := []int{0, 0, -1, -1}
	pred := []int{0, 0, 0, 0}
	r := mustScore(t, truth, pred)
	want := F1(2, 4, 2)
	if math.Abs(r.AVGF-want) > 1e-12 {
		t.Errorf("AVGF = %v, want %v", r.AVGF, want)
	}
	if r.NoiseFiltered != 0 {
		t.Errorf("NoiseFiltered = %v, want 0", r.NoiseFiltered)
	}
}

func TestScoreMultipleClusters(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{0, 0, -1, -1, 1, 1}
	r := mustScore(t, truth, pred)
	// Clusters 0 and 2 perfect, cluster 1 missed.
	if math.Abs(r.AVGF-2.0/3) > 1e-12 {
		t.Errorf("AVGF = %v, want 2/3", r.AVGF)
	}
	if r.PerCluster[0] != 1 || r.PerCluster[1] != 0 || r.PerCluster[2] != 1 {
		t.Errorf("PerCluster = %v", r.PerCluster)
	}
	if r.DetectedClusters != 2 {
		t.Errorf("DetectedClusters = %v", r.DetectedClusters)
	}
}

func TestScoreEmptyTruthCluster(t *testing.T) {
	// Label 1 never appears: its PerCluster entry is NaN and it is excluded
	// from the average.
	truth := []int{0, 0, 2, 2}
	pred := []int{0, 0, 1, 1}
	r := mustScore(t, truth, pred)
	if !math.IsNaN(r.PerCluster[1]) {
		t.Errorf("PerCluster[1] = %v, want NaN", r.PerCluster[1])
	}
	if r.AVGF != 1 {
		t.Errorf("AVGF = %v, want 1", r.AVGF)
	}
}

func TestScoreLengthMismatch(t *testing.T) {
	if _, err := Score([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestScoreAllNoise(t *testing.T) {
	truth := []int{-1, -1, -1}
	pred := []int{-1, 0, -1}
	r := mustScore(t, truth, pred)
	if r.AVGF != 0 {
		t.Errorf("AVGF = %v for pure-noise truth", r.AVGF)
	}
	if math.Abs(r.NoiseFiltered-2.0/3) > 1e-12 {
		t.Errorf("NoiseFiltered = %v, want 2/3", r.NoiseFiltered)
	}
}

func mustScore(t *testing.T, truth, pred []int) Result {
	t.Helper()
	r, err := Score(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
