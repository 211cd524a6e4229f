package minhash

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{Bands: 0, Rows: 4}, {Bands: 4, Rows: 0}, {Bands: -1, Rows: -1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	if got := (Config{Bands: 3, Rows: 5}).SigLen(); got != 15 {
		t.Fatalf("SigLen = %d, want 15", got)
	}
}

// Signatures are a pure function of the element MULTISET and the config:
// order and duplicates do not matter, seeds and shapes do.
func TestSignatureDeterministic(t *testing.T) {
	cfg := Config{Bands: 8, Rows: 4, Seed: 5}
	set := []string{"alpha", "beta", "gamma", "delta"}
	a, err := Signature(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.SigLen() {
		t.Fatalf("signature length %d, want %d", len(a), cfg.SigLen())
	}
	for j, v := range a {
		if v != math.Trunc(v) || v < 0 || v > math.MaxUint32 {
			t.Fatalf("position %d not an exact 32-bit value: %v", j, v)
		}
	}
	shuffled := []string{"delta", "alpha", "gamma", "beta", "alpha", "delta"}
	b, err := Signature(shuffled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("signature depends on order/duplicates")
	}
	other, err := Signature(set, Config{Bands: 8, Rows: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, other) {
		t.Fatal("different seeds produced the same signature")
	}
}

func TestSignatureErrors(t *testing.T) {
	if _, err := Signature(nil, DefaultConfig()); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Signature([]string{"a"}, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Signatures([][]string{{"a"}, {}}, DefaultConfig()); err == nil {
		t.Fatal("batch with empty set accepted")
	}
}

// The fraction of agreeing signature positions is an unbiased estimate of
// Jaccard similarity: over many random pairs with known overlap, the mean
// estimate must land near the true value.
func TestSignatureEstimatesJaccard(t *testing.T) {
	cfg := Config{Bands: 32, Rows: 4, Seed: 11} // 128 positions per pair
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		shared, own int // |A∩B| and per-set exclusive elements
		want        float64
	}{
		{shared: 30, own: 0, want: 1.0},
		{shared: 24, own: 4, want: 24.0 / 32.0},
		{shared: 10, own: 10, want: 10.0 / 30.0},
		{shared: 0, own: 15, want: 0.0},
	} {
		var sum float64
		const pairs = 40
		for p := 0; p < pairs; p++ {
			tag := rng.Int63()
			shared := make([]string, tc.shared)
			for i := range shared {
				shared[i] = fmt.Sprintf("s%d-%d", tag, i)
			}
			a := append([]string(nil), shared...)
			b := append([]string(nil), shared...)
			for i := 0; i < tc.own; i++ {
				a = append(a, fmt.Sprintf("a%d-%d", tag, i))
				b = append(b, fmt.Sprintf("b%d-%d", tag, i))
			}
			if len(a) == 0 {
				t.Fatal("degenerate test case")
			}
			sa, err := Signature(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := Signature(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			match := 0
			for j := range sa {
				if sa[j] == sb[j] {
					match++
				}
			}
			sum += float64(match) / float64(len(sa))
		}
		got := sum / pairs
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("shared %d own %d: estimated J = %.3f, want %.3f ± 0.05", tc.shared, tc.own, got, tc.want)
		}
	}
}

// Identical sets share every bucket; disjoint sets share (almost) none.
func TestIndexBucketsFollowSimilarity(t *testing.T) {
	cfg := Config{Bands: 8, Rows: 4, Seed: 3}
	sigs, err := Signatures([][]string{
		{"a", "b", "c", "d", "e"},
		{"a", "b", "c", "d", "e"},
		{"v", "w", "x", "y", "z"},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Append(sigs); err != nil {
		t.Fatal(err)
	}
	mark := make([]uint32, ix.N())
	if got := ix.CandidatesByIDsInto([]int{0}, nil, mark, 1, nil); !slices.Equal(got, []int32{1}) {
		t.Fatalf("duplicate set candidates = %v, want [1]", got)
	}
	if got := ix.CandidatesByIDsInto([]int{2}, nil, mark, 2, nil); len(got) != 0 {
		t.Fatalf("disjoint set candidates = %v, want none", got)
	}
}
