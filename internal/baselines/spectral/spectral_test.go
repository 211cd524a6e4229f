package spectral

import (
	"context"
	"testing"

	"alid/internal/affinity"
	"alid/internal/eval"
	"alid/internal/testutil"
)

func oracleFor(t *testing.T, pts [][]float64, k affinity.Kernel) *affinity.Oracle {
	t.Helper()
	o, err := affinity.NewOracle(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFullRecoversBlobs(t *testing.T) {
	pts, labels := testutil.Blobs(3, [][]float64{{0, 0}, {12, 0}, {0, 12}}, 25, 0.5, 0, 0, 1)
	o := oracleFor(t, pts, affinity.Kernel{K: 0.5, P: 2})
	res, err := Full(context.Background(), o, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	score, err := eval.Score(labels, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.95 {
		t.Fatalf("SC-FL AVG-F = %v on clean blobs, want ≥ 0.95", score.AVGF)
	}
}

func TestNystromRecoversBlobs(t *testing.T) {
	pts, labels := testutil.Blobs(5, [][]float64{{0, 0}, {12, 0}, {0, 12}}, 25, 0.5, 0, 0, 1)
	o := oracleFor(t, pts, affinity.Kernel{K: 0.5, P: 2})
	cfg := DefaultConfig(3)
	cfg.Landmarks = 30
	res, err := Nystrom(context.Background(), o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	score, err := eval.Score(labels, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.9 {
		t.Fatalf("SC-NYS AVG-F = %v on clean blobs, want ≥ 0.9", score.AVGF)
	}
}

func TestInvalidK(t *testing.T) {
	pts, _ := testutil.Blobs(7, [][]float64{{0, 0}}, 10, 0.5, 0, 0, 1)
	o := oracleFor(t, pts, affinity.Kernel{K: 0.5, P: 2})
	if _, err := Full(context.Background(), o, DefaultConfig(0)); err == nil {
		t.Error("K=0 accepted by Full")
	}
	if _, err := Nystrom(context.Background(), o, DefaultConfig(0)); err == nil {
		t.Error("K=0 accepted by Nystrom")
	}
}

func TestNystromLandmarksClamped(t *testing.T) {
	// More landmarks than points must not crash.
	pts, labels := testutil.Blobs(9, [][]float64{{0, 0}, {12, 12}}, 10, 0.4, 0, 0, 1)
	o := oracleFor(t, pts, affinity.Kernel{K: 0.5, P: 2})
	cfg := DefaultConfig(2)
	cfg.Landmarks = 500
	res, err := Nystrom(context.Background(), o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	score, err := eval.Score(labels, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if score.AVGF < 0.9 {
		t.Fatalf("AVG-F = %v", score.AVGF)
	}
}

// Partitioning behaviour: with heavy noise and K = clusters+1, noise is
// forced into clusters, dragging F1 down — the effect Fig. 11 demonstrates.
func TestNoiseDegradesPartitioning(t *testing.T) {
	clean, cleanLabels := testutil.Blobs(11, [][]float64{{0, 0}, {12, 12}}, 20, 0.4, 0, 0, 1)
	noisy, noisyLabels := testutil.Blobs(11, [][]float64{{0, 0}, {12, 12}}, 20, 0.4, 120, -5, 17)
	o1 := oracleFor(t, clean, affinity.Kernel{K: 0.5, P: 2})
	o2 := oracleFor(t, noisy, affinity.Kernel{K: 0.5, P: 2})
	r1, err := Full(context.Background(), o1, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Full(context.Background(), o2, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eval.Score(cleanLabels, r1.Assign)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eval.Score(noisyLabels, r2.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if !(s2.AVGF < s1.AVGF) {
		t.Fatalf("noise did not degrade SC-FL: clean %v vs noisy %v", s1.AVGF, s2.AVGF)
	}
}

func TestContextCancel(t *testing.T) {
	pts, _ := testutil.Blobs(13, [][]float64{{0, 0}}, 40, 0.5, 0, 0, 1)
	o := oracleFor(t, pts, affinity.Kernel{K: 0.5, P: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Full(ctx, o, DefaultConfig(2)); err == nil {
		t.Fatal("cancelled context should abort Full")
	}
	if _, err := Nystrom(ctx, o, DefaultConfig(2)); err == nil {
		t.Fatal("cancelled context should abort Nystrom")
	}
}
