package snapshot

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"alid/internal/core"
)

// sampleDelta is a structurally complete delta against sample(t)'s state:
// two appended points, one old and one new eviction, a label change and a
// cluster patch.
func sampleDelta(t testing.TB, s *Snapshot) *Delta {
	t.Helper()
	d := s.Mat.D
	rows := make([]float64, 2*d)
	for i := range rows {
		rows[i] = float64(i) * 0.5
	}
	return &Delta{
		Generation:   s.Generation,
		FromN:        s.Mat.N,
		ToN:          s.Mat.N + 2,
		D:            d,
		Rows:         rows,
		NewLabels:    []int{0, -1},
		Evicts:       []int{2, s.Mat.N + 1},
		LabelChanges: []LabelChange{{ID: 7, Label: 0}},
		ClusterCount: 1,
		Patches: []ClusterPatch{{Index: 0, Cluster: &core.Cluster{
			Members: []int{0, 3, 5, 7, s.Mat.N},
			Weights: []float64{0.3, 0.2, 0.2, 0.15, 0.15},
			Density: 0.9, Seed: 3, OuterIterations: 2, LIDIterations: 41, PeakEntries: 99,
		}}},
		Commits: s.Commits + 1,
	}
}

// The delta codec round-trips to a byte fixed point, like every full format.
func TestDeltaWriteReadRewriteFixedPoint(t *testing.T) {
	d := sampleDelta(t, sample(t))
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != d.Generation || got.FromN != d.FromN || got.ToN != d.ToN ||
		got.D != d.D || got.ClusterCount != d.ClusterCount || got.Commits != d.Commits {
		t.Fatalf("header fields differ: %+v vs %+v", got, d)
	}
	if !slices.Equal(got.Rows, d.Rows) || !slices.Equal(got.NewLabels, d.NewLabels) ||
		!slices.Equal(got.Evicts, d.Evicts) || !slices.Equal(got.LabelChanges, d.LabelChanges) {
		t.Fatal("payload differs")
	}
	var buf2 bytes.Buffer
	if err := WriteDelta(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("delta encode(decode(x)) != x")
	}
}

// Corruption anywhere in the stream fails the CRC check; truncation fails
// the read. Nothing decodes to a plausible-but-wrong delta.
func TestDeltaCorruptionDetected(t *testing.T) {
	d := sampleDelta(t, sample(t))
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bit flip decoded cleanly")
	}
	if _, err := ReadDelta(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated delta decoded cleanly")
	}
	if _, err := ReadDelta(bytes.NewReader(raw[:9])); err == nil {
		t.Fatal("header-only delta decoded cleanly")
	}
}

// ApplyDelta advances the state and refuses anything that is not an exact
// continuation — wrong generation, wrong base count, wrong dimension — with
// the typed sentinel.
func TestApplyDeltaContinuity(t *testing.T) {
	s := sample(t)
	d := sampleDelta(t, s)
	preN := s.Mat.N

	wrongGen := *d
	wrongGen.Generation = s.Generation + 1
	if err := ApplyDelta(s, &wrongGen); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("cross-generation apply: err %v, want ErrDeltaMismatch", err)
	}
	wrongN := *d
	wrongN.FromN, wrongN.ToN = d.FromN+5, d.ToN+5
	if err := ApplyDelta(s, &wrongN); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("out-of-order apply: err %v, want ErrDeltaMismatch", err)
	}
	if s.Mat.N != preN {
		t.Fatalf("failed applies mutated the matrix: N=%d, want %d", s.Mat.N, preN)
	}

	if err := ApplyDelta(s, d); err != nil {
		t.Fatal(err)
	}
	if s.Mat.N != d.ToN || len(s.Labels) != d.ToN || s.Commits != d.Commits {
		t.Fatalf("applied state: N=%d labels=%d commits=%d, want %d/%d/%d",
			s.Mat.N, len(s.Labels), s.Commits, d.ToN, d.ToN, d.Commits)
	}
	for _, id := range d.Evicts {
		if s.Mat.Live(id) || s.Labels[id] != -1 {
			t.Fatalf("evicted id %d still live (label %d)", id, s.Labels[id])
		}
	}
	if s.Labels[7] != 0 {
		t.Fatalf("label change not applied: %d", s.Labels[7])
	}
	if got := s.Clusters[0]; !slices.Equal(got.Members, d.Patches[0].Cluster.Members) {
		t.Fatalf("cluster patch not applied: %v", got.Members)
	}
}

// Growing the cluster list without patching the new slots is a broken diff,
// not a valid state — refused with the sentinel.
func TestApplyDeltaRefusesUnpatchedGrowth(t *testing.T) {
	s := sample(t)
	d := sampleDelta(t, s)
	d.ClusterCount = 3 // grown to 3, but only index 0 is patched
	if err := ApplyDelta(s, d); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("unpatched growth: err %v, want ErrDeltaMismatch", err)
	}
	// A crafted count is refused before the list grows: 2^40 slots would
	// take 8 TiB.
	s = sample(t)
	d = sampleDelta(t, s)
	d.ClusterCount = 1 << 40
	if err := ApplyDelta(s, d); !errors.Is(err, ErrDeltaMismatch) || !strings.Contains(err.Error(), "patches") {
		t.Fatalf("2^40 clusters: err %v, want ErrDeltaMismatch for too few patches", err)
	}
}

// The chain manifest codec round-trips and rejects corruption, mirroring the
// sharded manifest.
func TestChainManifestRoundTrip(t *testing.T) {
	c := &Chain{
		Generation: 2,
		Base:       ChainEntry{Name: "alid.snap", CRC: 0xDEADBEEF, Size: 4096, ToN: 100},
		Deltas: []ChainEntry{
			{Name: "alid.snap.delta0", CRC: 1, Size: 128, ToN: 120},
			{Name: "alid.snap.delta1", CRC: 2, Size: 256, ToN: 150},
		},
	}
	var buf bytes.Buffer
	if err := WriteChain(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChain(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != c.Generation || got.Base != c.Base || !slices.Equal(got.Deltas, c.Deltas) {
		t.Fatalf("chain differs: %+v vs %+v", got, c)
	}

	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)/2] ^= 1
	if _, err := ReadChain(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt chain manifest decoded cleanly")
	}
	if _, err := ReadChain(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated chain manifest decoded cleanly")
	}
	if err := WriteChain(&bytes.Buffer{}, &Chain{Generation: 0}); err == nil {
		t.Fatal("baseless chain accepted")
	}

	// The legacy single-engine chain decodes: a base and three deltas,
	// each entry recording its file's exact size.
	legacy, err := ReadChain(bytes.NewReader(golden(t, "chain/alid.snap.chain")))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Base.Name != "alid.snap" || len(legacy.Deltas) != 3 {
		t.Fatalf("legacy chain %+v", legacy)
	}
	for _, e := range append([]ChainEntry{legacy.Base}, legacy.Deltas...) {
		if e.Size != uint64(len(golden(t, "chain/"+e.Name))) {
			t.Fatalf("entry %s records %d bytes", e.Name, e.Size)
		}
	}
}
