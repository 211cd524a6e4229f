package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alid/internal/snapshot"
)

// goldenDir holds the legacy-layout fixtures: files written at commit
// 61e958d, the last release with the v1–v4 writers, the single-engine
// ALIDCHAI chain and the version 1 manifest, together with the v5 bytes
// that release wrote after restoring each of them (*.want, want.shard<i>).
// internal/snapshot/testdata/golden/README.md lists the states.
const goldenDir = "../snapshot/testdata/golden"

func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	return readFile(t, filepath.Join(goldenDir, name))
}

// copyGolden copies the fixture files named by names into dir (a test that
// saves must not write into testdata).
func copyGolden(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), goldenFile(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// legacySaves are the legacy layouts: the save path and, per shard, the
// golden v5 re-encode ("" for an empty shard).
var legacySaves = []struct {
	name, path string
	want       []string
}{
	{"v1", "v1.snap", []string{"v1.snap.want"}},
	{"v2", "v2.snap", []string{"v2.snap.want"}},
	{"v3-tombstones", "v3-tombstones.snap", []string{"v3-tombstones.snap.want"}},
	{"v4-lsh", "v4-lsh.snap", []string{"v4-lsh.snap.want"}},
	{"v4-minhash", "v4-minhash.snap", []string{"v4-minhash.snap.want"}},
	{"v5", "v5.snap", []string{"v5.snap.want"}},
	{"chain", "chain/alid.snap", []string{"chain/want.shard0"}},
	{"manifest", "manifest/alid.snap", []string{"manifest/want.shard0", "manifest/want.shard1", ""}},
}

// Every legacy layout restores through LoadSharded as the save it was:
// single snapshot files of every version and the single-engine delta chain
// as one shard, the version 1 manifest at its three shards with shard 2
// empty. Each restored shard re-encodes to exactly the v5 bytes the
// generating release produced from the same input, and any other shard
// count is refused.
func TestLegacyLayoutsRestore(t *testing.T) {
	for _, tc := range legacySaves {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(goldenDir, tc.path)
			s, err := LoadSharded(path, ShardedLoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if len(s.shards) != len(tc.want) {
				t.Fatalf("restored %d shards, want %d", len(s.shards), len(tc.want))
			}
			got := shardBytes(t, s)
			for i, want := range tc.want {
				if want == "" {
					if got[i] != nil || s.shards[i].Stats().N != 0 {
						t.Fatalf("shard %d should be empty", i)
					}
					continue
				}
				if !bytes.Equal(got[i], goldenFile(t, want)) {
					t.Fatalf("shard %d re-encodes to %d bytes differing from %s", i, len(got[i]), want)
				}
			}
			if _, err := LoadSharded(path, ShardedLoadOptions{Shards: 4}); !errors.Is(err, snapshot.ErrShardCountMismatch) {
				t.Fatalf("restore at 4 shards: err %v, want ErrShardCountMismatch", err)
			}
			backend := "lsh"
			if tc.name == "v4-minhash" {
				backend = "minhash"
			}
			r, err := LoadSharded(path, ShardedLoadOptions{Shards: len(tc.want), Backend: backend})
			if err != nil {
				t.Fatalf("restore expecting %s: %v", backend, err)
			}
			r.Close()
		})
	}
}

// The version 1 manifest's cursor still places the next points: the
// router resumes round-robin where the saved one stopped (cursor 114 of 3
// shards: shard 0 first), so the empty shard fills like any other.
func TestLegacyManifestResumesCursor(t *testing.T) {
	ctx := context.Background()
	s, err := LoadSharded(filepath.Join(goldenDir, "manifest/alid.snap"), ShardedLoadOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := []int{s.shards[0].Stats().N, s.shards[1].Stats().N, 0}
	if err := s.Ingest(ctx, [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, add := range []int{2, 1, 1} {
		if got := s.shards[i].Stats().N; got != before[i]+add {
			t.Fatalf("shard %d: N=%d, want %d", i, got, before[i]+add)
		}
	}
}

// The first save over a legacy layout commits a manifest at the same path
// and then deletes every legacy file; the engine restores from it
// byte-identically. A manifest wins over legacy chain files left beside
// it.
func TestSaveReplacesLegacyLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files []string
	}{
		{"single", []string{"v5.snap"}},
		{"chain", []string{"chain/alid.snap", "chain/alid.snap.chain", "chain/alid.snap.delta0", "chain/alid.snap.delta1", "chain/alid.snap.delta2"}},
		{"manifest", []string{"manifest/alid.snap", "manifest/alid.snap.shard0", "manifest/alid.snap.shard1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			copyGolden(t, dir, tc.files...)
			path := filepath.Join(dir, filepath.Base(tc.files[0]))
			s, err := LoadSharded(path, ShardedLoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Ingest(ctx, [][]float64{{0.1, 0.1}, {15.1, 15}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := NewChainWriter(s, path, 8).Save(); err != nil {
				t.Fatal(err)
			}
			if m := readFile(t, path)[:8]; string(m) != snapshot.ManifestMagic {
				t.Fatalf("save wrote magic %q", m)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Base(path)
			for _, e := range ents {
				n := e.Name()
				if n == base+".chain" || strings.HasPrefix(n, base+".delta") || strings.HasPrefix(n, base+".shard") {
					t.Fatalf("legacy file %s survived the first save", n)
				}
			}
			// Legacy chain files reappearing beside the manifest are ignored.
			copyGolden(t, dir, "chain/alid.snap.chain", "chain/alid.snap.delta0")
			r, err := LoadSharded(path, ShardedLoadOptions{Shards: len(s.shards)})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sameShardBytes(t, s, r)
		})
	}
}
