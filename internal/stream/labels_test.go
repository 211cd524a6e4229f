package stream

import (
	"math/rand"
	"slices"
	"testing"
)

// Labels snapshots are frozen at chunk granularity: writes and appends on
// the live side after a snapshot must copy-on-write, never showing through,
// across multiple chunks and multiple generations of snapshots.
func TestLabelsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := &Labels{}
	n := 2*labelChunk + 300
	ref := make([]int, n)
	for i := range ref {
		ref[i] = rng.Intn(5) - 1
		l.append(ref[i])
	}
	if l.Len() != n || !slices.Equal(l.Flat(), ref) {
		t.Fatal("append/Flat round trip failed")
	}

	snap1 := l.snapshot()
	want1 := append([]int(nil), ref...)

	// Mutate every region: first chunk, middle chunk, tail; then append past
	// a chunk boundary.
	for _, i := range []int{0, labelChunk - 1, labelChunk + 7, 2*labelChunk + 299} {
		l.set(i, 99)
		ref[i] = 99
	}
	for i := 0; i < labelChunk; i++ {
		l.append(7)
		ref = append(ref, 7)
	}
	if !slices.Equal(snap1.Flat(), want1) {
		t.Fatal("snapshot 1 mutated by live writes")
	}
	if !slices.Equal(l.Flat(), ref) {
		t.Fatal("live labels wrong after COW writes")
	}
	for _, i := range []int{0, labelChunk + 7, n - 1, n} {
		if l.At(i) != ref[i] {
			t.Fatalf("At(%d) = %d, want %d", i, l.At(i), ref[i])
		}
	}

	// A second snapshot freezes the new state; the first stays intact.
	snap2 := l.snapshot()
	want2 := append([]int(nil), ref...)
	l.set(5, -1)
	l.append(3)
	if !slices.Equal(snap1.Flat(), want1) || !slices.Equal(snap2.Flat(), want2) {
		t.Fatal("older snapshots disturbed by later writes")
	}

	// Divergent lineage: both sides of a snapshot may keep writing (the
	// restore-from-view path) — chunk COW isolates them from each other and
	// from earlier snapshots.
	fork := l.snapshot()
	liveWant := append([]int(nil), l.Flat()...)
	fork.set(1, 42)
	fork.append(8)
	if !slices.Equal(l.Flat(), liveWant) {
		t.Fatal("live labels mutated via forked lineage")
	}
	if !slices.Equal(snap2.Flat(), want2) {
		t.Fatal("snapshot mutated via forked lineage")
	}
	if fork.At(1) != 42 || fork.At(fork.Len()-1) != 8 {
		t.Fatal("forked lineage lost its own writes")
	}
}
