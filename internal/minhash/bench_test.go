package minhash

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSigs signs a near-duplicate workload: nCommunities groups of size
// members each, every member a one-element variation of its community's
// 30-element base set — the shape banded MinHash is built to bucket.
func benchSigs(b *testing.B, cfg Config, nCommunities, size int) [][]float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	sets := make([][]string, 0, nCommunities*size)
	for c := 0; c < nCommunities; c++ {
		base := make([]string, 30)
		for i := range base {
			base[i] = fmt.Sprintf("c%d-e%d", c, i)
		}
		for m := 0; m < size; m++ {
			s := append([]string(nil), base...)
			s[rng.Intn(len(s))] = fmt.Sprintf("c%d-x%d", c, rng.Intn(10))
			sets = append(sets, s)
		}
	}
	sigs, err := Signatures(sets, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sigs
}

// BenchmarkMinHashQuery measures the allocation-free candidate-query path on
// a 10k-signature near-duplicate index (200 communities of 50): one
// QueryInto per op.
func BenchmarkMinHashQuery(b *testing.B) {
	cfg := DefaultConfig()
	sigs := benchSigs(b, cfg, 200, 50)
	ix, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.Append(sigs); err != nil {
		b.Fatal(err)
	}
	sig := make([]int64, ix.SigLen())
	mark := make([]uint32, ix.N())
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.QueryInto(sigs[i%len(sigs)], sig, dst[:0], mark, uint32(i+1))
	}
	_ = dst
}

// BenchmarkMinHashSignature measures signing cost per set (30 elements, 64
// hash positions): the ingest-side conversion the daemon and the /v1/ingest
// set form pay per element set.
func BenchmarkMinHashSignature(b *testing.B) {
	cfg := DefaultConfig()
	set := make([]string, 30)
	for i := range set {
		set[i] = fmt.Sprintf("element-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Signature(set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
