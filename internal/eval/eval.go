// Package eval implements the evaluation metrics of Section 5: the Average F1
// score (AVG-F) over ground-truth dominant clusters, plus the noise-filtering
// statistics used for the Fig. 10 qualitative analysis.
//
// AVG-F follows Chen & Saad (TKDE 2012) as the paper does: for every
// ground-truth cluster take the best-matching detected cluster's F1 and
// average over ground-truth clusters. Entropy/NMI are unsuitable because the
// data is only partially clustered (most points are background noise).
package eval

import (
	"fmt"
	"math"
)

// F1 returns the harmonic mean of precision and recall for a detected set of
// size det, a truth set of size truth, and an intersection of size both.
func F1(both, det, truth int) float64 {
	if det == 0 || truth == 0 || both == 0 {
		return 0
	}
	p := float64(both) / float64(det)
	r := float64(both) / float64(truth)
	return 2 * p * r / (p + r)
}

// Result summarizes a detection run against ground truth.
type Result struct {
	// AVGF is the mean best-match F1 over ground-truth clusters.
	AVGF float64
	// PerCluster holds each ground-truth cluster's best F1, indexed by the
	// ground-truth label.
	PerCluster []float64
	// NoiseFiltered is the fraction of ground-truth noise points left
	// unassigned by the detector (higher = better noise resistance).
	NoiseFiltered float64
	// PositiveCovered is the fraction of ground-truth cluster members that
	// were assigned to some detected cluster.
	PositiveCovered float64
	// DetectedClusters is the number of clusters the method reported.
	DetectedClusters int
}

// Score compares a predicted assignment against ground truth. Both slices
// assign each point a cluster id, with negative meaning noise/unassigned.
// The number of ground-truth clusters is inferred from the labels.
func Score(truth, pred []int) (Result, error) {
	if len(truth) != len(pred) {
		return Result{}, fmt.Errorf("eval: truth has %d labels, pred has %d", len(truth), len(pred))
	}
	nTruth := 0
	for _, l := range truth {
		if l >= nTruth {
			nTruth = l + 1
		}
	}
	nPred := 0
	for _, l := range pred {
		if l >= nPred {
			nPred = l + 1
		}
	}
	truthSize := make([]int, nTruth)
	predSize := make([]int, nPred)
	// joint[g] maps predicted id -> overlap count with ground-truth g.
	joint := make([]map[int]int, nTruth)
	for g := range joint {
		joint[g] = make(map[int]int)
	}
	noiseTotal, noiseAssigned := 0, 0
	posTotal, posAssigned := 0, 0
	for i, g := range truth {
		p := pred[i]
		if p >= 0 {
			predSize[p]++
		}
		if g < 0 {
			noiseTotal++
			if p >= 0 {
				noiseAssigned++
			}
			continue
		}
		truthSize[g]++
		posTotal++
		if p >= 0 {
			posAssigned++
			joint[g][p]++
		}
	}
	res := Result{PerCluster: make([]float64, nTruth), DetectedClusters: nPred}
	var sum float64
	counted := 0
	for g := 0; g < nTruth; g++ {
		if truthSize[g] == 0 {
			res.PerCluster[g] = math.NaN()
			continue
		}
		best := 0.0
		for p, both := range joint[g] {
			if f := F1(both, predSize[p], truthSize[g]); f > best {
				best = f
			}
		}
		res.PerCluster[g] = best
		sum += best
		counted++
	}
	if counted > 0 {
		res.AVGF = sum / float64(counted)
	}
	if noiseTotal > 0 {
		res.NoiseFiltered = 1 - float64(noiseAssigned)/float64(noiseTotal)
	} else {
		res.NoiseFiltered = 1
	}
	if posTotal > 0 {
		res.PositiveCovered = float64(posAssigned) / float64(posTotal)
	}
	return res, nil
}
