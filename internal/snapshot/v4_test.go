package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/index"
	"alid/internal/matrix"
	"alid/internal/minhash"
)

// minhashSample builds a set-backend snapshot: random overlapping element
// sets, signed and indexed under banded MinHash, with a Jaccard kernel in
// the config — the state `alidd -backend minhash` persists.
func minhashSample(t *testing.T) *Snapshot {
	t.Helper()
	mh := minhash.Config{Bands: 6, Rows: 3, Seed: 9}
	rng := rand.New(rand.NewSource(43))
	sets := make([][]string, 60)
	for i := range sets {
		base := rng.Intn(3) * 40
		s := make([]string, 4+rng.Intn(6))
		for j := range s {
			s[j] = fmt.Sprintf("e%d", base+rng.Intn(50))
		}
		sets[i] = s
	}
	sigs, err := minhash.Signatures(sets, mh)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matrix.FromRows(sigs)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := minhash.BuildMatrix(m, mh)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Backend = "minhash"
	cfg.MinHash = mh
	cfg.Kernel = affinity.Kernel{K: 2, Jaccard: true}
	labels := make([]int, m.N)
	for i := range labels {
		labels[i] = -1
	}
	cl := &core.Cluster{
		Members: []int{1, 4, 9},
		Weights: []float64{0.4, 0.35, 0.25},
		Density: 0.88, Seed: 4, OuterIterations: 3, LIDIterations: 31, PeakEntries: 42,
	}
	for _, mb := range cl.Members {
		labels[mb] = 0
	}
	return &Snapshot{
		Core: cfg, BatchSize: 32,
		Mat: m, Index: idx,
		Clusters: []*core.Cluster{cl},
		Labels:   labels,
		Commits:  2,
	}
}

// The v4 format round-trips BOTH backends to a byte-identical fixed point:
// save → load → re-encode reproduces the stream exactly, the decoded config
// names the same backend, and the restored index answers identically.
func TestV4BackendRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Snapshot
	}{
		{"lsh", sample(t)},
		{"minhash", minhashSample(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, tc.s); err != nil {
				t.Fatal(err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Core != tc.s.Core {
				t.Fatalf("config: %+v vs %+v", got.Core, tc.s.Core)
			}
			if got.Index.Backend() != tc.s.Index.Backend() {
				t.Fatalf("index backend %q, want %q", got.Index.Backend(), tc.s.Index.Backend())
			}
			if !sameChunks(got.Mat.DataChunks(), tc.s.Mat.DataChunks()) || !slices.Equal(got.Labels, tc.s.Labels) {
				t.Fatal("matrix/labels differ")
			}
			for id := 0; id < tc.s.Mat.N; id += 3 {
				if !slices.Equal(candidates(tc.s.Index, id), candidates(got.Index, id)) {
					t.Fatalf("index candidates differ at %d", id)
				}
			}
			var buf2 bytes.Buffer
			if err := Write(&buf2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("v4 encode(decode(x)) != x")
			}
		})
	}
}

// Tombstoned minhash state survives the round trip through the
// liveness-aware restore path and stays a byte fixed point too.
func TestV4MinHashTombstoneRoundTrip(t *testing.T) {
	s := minhashSample(t)
	dead := []int{0, 7, 13, 14, 21}
	s.Mat.Evict(dead)
	s.Index.Evict(dead)
	for _, id := range dead {
		s.Labels[id] = -1
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if liveCount(got.Index) != liveCount(s.Index) || got.Mat.LiveCount() != s.Mat.LiveCount() {
		t.Fatalf("liveness: index %d/%d matrix %d/%d",
			liveCount(got.Index), liveCount(s.Index), got.Mat.LiveCount(), s.Mat.LiveCount())
	}
	for id := 1; id < s.Mat.N; id += 2 {
		if !s.Mat.Live(id) {
			continue
		}
		if !slices.Equal(candidates(s.Index, id), candidates(got.Index, id)) {
			t.Fatalf("candidates differ at %d", id)
		}
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("tombstoned minhash encode(decode(x)) != x")
	}
}

// Cross-backend refusals: the codec never silently reinterprets one
// backend's payload as the other's. Files written before backend tags
// existed decode as dense; a tagged minhash file decodes as minhash.
func TestV4BackendRefusals(t *testing.T) {
	ls, ms := sample(t), minhashSample(t)

	// Config and index naming different backends is refused at write time.
	mixed := *ls
	mixed.Core.Backend = "minhash"
	mixed.Core.MinHash = ms.Core.MinHash
	if err := Write(&bytes.Buffer{}, &mixed); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("minhash config over lsh index: err %v, want ErrBackendMismatch", err)
	}
	mixed2 := *ms
	mixed2.Core.Backend = ""
	if err := Write(&bytes.Buffer{}, &mixed2); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("lsh config over minhash index: err %v, want ErrBackendMismatch", err)
	}

	for file, want := range map[string]string{
		"v1.snap": index.BackendLSH, "v3-tombstones.snap": index.BackendLSH,
		"v4-lsh.snap": index.BackendLSH, "v4-minhash.snap": index.BackendMinHash,
	} {
		got, err := Read(bytes.NewReader(golden(t, file)))
		if err != nil {
			t.Fatal(err)
		}
		if b := index.Normalize(got.Core.Backend); b != want || got.Index.Backend() != want {
			t.Fatalf("%s: config backend %q, index %q, want %q", file, b, got.Index.Backend(), want)
		}
	}
}
