package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
	"alid/internal/server"
)

// Serving-set geometry, as in testutil.ServeWorkload: 90% of the points
// spread over 50 Gaussian blobs (σ = 0.3, centers uniform in [0,40]^16),
// 10% uniform background noise over the same box.
const (
	serveN      = 20000
	serveDim    = 16
	serveBlobs  = 50
	serveSpread = 0.3
	serveBox    = 40.0
)

// geometrySeed fixes the blob centers to ServeWorkload's, so every seed
// serves the same cluster layout and the seed varies only the sample drawn
// from it: seed-to-seed differences in cost then come from the sample, not
// from blobs that happen to overlap.
const geometrySeed = 71

// blobGen draws labeled points of the serving geometry from one seeded
// stream. Label -1 is noise.
type blobGen struct {
	rng     *rand.Rand
	centers [][]float64
}

func newBlobGen(seed int64) *blobGen {
	geo := rand.New(rand.NewSource(geometrySeed))
	g := &blobGen{rng: rand.New(rand.NewSource(seed)), centers: make([][]float64, serveBlobs)}
	for c := range g.centers {
		g.centers[c] = make([]float64, serveDim)
		for j := range g.centers[c] {
			g.centers[c][j] = geo.Float64() * serveBox
		}
	}
	return g
}

// blob draws a point of blob c.
func (g *blobGen) blob(c int) []float64 {
	p := make([]float64, serveDim)
	for j := range p {
		p[j] = g.centers[c][j] + g.rng.NormFloat64()*serveSpread
	}
	return p
}

func (g *blobGen) noise() []float64 {
	p := make([]float64, serveDim)
	for j := range p {
		p[j] = g.rng.Float64() * serveBox
	}
	return p
}

// initial draws the n-point starting set in ServeWorkload's layout: blob
// points first (point i in blob i mod 50), noise last.
func (g *blobGen) initial(n int) ([][]float64, []int) {
	pts, labels := make([][]float64, n), make([]int, n)
	for i := range pts {
		if i < n*9/10 {
			labels[i] = i % serveBlobs
			pts[i] = g.blob(labels[i])
		} else {
			labels[i] = -1
			pts[i] = g.noise()
		}
	}
	return pts, labels
}

// mixed draws n points from the same distribution in a fixed composition:
// every tenth point is noise, the others visit the blobs in turn. Only the
// coordinates come from the seed, so every seed asks the same mix of work.
func (g *blobGen) mixed(n int) ([][]float64, []int) {
	pts, labels := make([][]float64, n), make([]int, n)
	for i := range pts {
		if i%10 == 9 {
			labels[i] = -1
			pts[i] = g.noise()
		} else {
			labels[i] = (i - i/10) % serveBlobs
			pts[i] = g.blob(labels[i])
		}
	}
	return pts, labels
}

// serveConfig tunes the kernel and LSH segment to the blob geometry the way
// the serving load generator does: intra-blob distances concentrate near
// σ·√(2d), which gets affinity ≈ 0.9 and collides across the 8 tables.
func serveConfig() core.Config {
	scale := serveSpread * math.Sqrt(2*serveDim)
	cfg := core.DefaultConfig()
	cfg.Kernel = affinity.Kernel{K: -math.Log(0.9) / scale, P: 2}
	cfg.LSH = lsh.Config{Projections: 12, Tables: 8, R: 8 * scale, Seed: 1}
	return cfg
}

// singleBodies pre-encodes one /v1/assign single-point body per point.
func singleBodies(pts [][]float64) [][]byte {
	out := make([][]byte, len(pts))
	for i, p := range pts {
		out[i] = mustJSON(server.AssignRequest{Point: p})
	}
	return out
}

// batchBodies pre-encodes /v1/assign batch bodies of size points each,
// covering pts in order (len(pts) must be a multiple of size).
func batchBodies(pts [][]float64, size int) [][]byte {
	out := make([][]byte, 0, len(pts)/size)
	for i := 0; i+size <= len(pts); i += size {
		out = append(out, mustJSON(server.AssignRequest{Points: pts[i : i+size]}))
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of floats are encoded here
	}
	return b
}
