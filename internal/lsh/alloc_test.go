package lsh

import (
	"testing"

	"alid/internal/index"
)

// CandidatesByIDsInto is called once per CIVS iteration with the whole
// support; with warmed dst and bucket-set scratch the steady path must not
// allocate.
func TestCandidatesByIDIntoAllocFree(t *testing.T) {
	pts, _ := twoBlobs(300, 41)
	idx, err := Build(pts, Config{Projections: 6, Tables: 6, R: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]uint32, len(pts))
	var seen index.BucketSet
	support := []int{0, 1, 2, 3, 4, 150, 151, 152}
	// Warm the buffers to steady-state capacity.
	var buf []int32
	gen := uint32(0)
	for id := 0; id < 20; id++ {
		gen++
		support[0] = id
		buf = idx.CandidatesByIDsInto(support, buf[:0], mark, gen, &seen)
	}
	allocs := testing.AllocsPerRun(50, func() {
		gen++
		support[0] = int(gen) % 20
		buf = idx.CandidatesByIDsInto(support, buf[:0], mark, gen, &seen)
	})
	if allocs != 0 {
		t.Fatalf("CandidatesByIDsInto allocates %v per run, want 0", allocs)
	}
}
