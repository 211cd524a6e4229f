// Acceptance-gate crosschecks for delta-chain persistence, at one and at
// four shards: a chain restore must be BYTE-identical, shard by shard, to
// restoring an equivalent full save of the same state; a damaged chain
// tail falls back to the longest complete prefix on that shard; mixed
// damage or a damaged base refuses all-or-nothing with the typed
// sentinels; a generation compaction re-roots only its own shard's chain;
// and a save that fails before its manifest is committed leaves the
// previous save restorable.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"alid/internal/snapshot"
	"alid/internal/testutil"
)

// forShards runs f as one subtest per shard count the chain gates cover.
func forShards(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// chainWave is one window of the canonical chain traffic: ingest, commit,
// then evict three ids.
func chainWave(t *testing.T, s *Sharded, wi int) {
	t.Helper()
	ctx := context.Background()
	waves := []struct {
		seed    int64
		centers [][]float64
		n       int
		noise   int
	}{
		{91, [][]float64{{-12, 8}}, 25, 5},
		{92, [][]float64{{0, 0}, {15, 15}}, 10, 4},
		{93, [][]float64{{30, -5}}, 20, 0},
		{94, [][]float64{{5, 5}}, 10, 0},
	}
	w := waves[wi%len(waves)]
	pts, _ := testutil.Blobs(w.seed, w.centers, w.n, 0.3, w.noise, 0, 15)
	if err := s.Ingest(ctx, pts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(ctx, []int{wi * 7, wi*7 + 2, 80 + wi}); err != nil {
		t.Fatal(err)
	}
}

// chainedEngine runs the canonical chain traffic script on an n-shard
// engine: initial detection, a full save, then three windows of
// ingest/evict each followed by a delta save. Returns the engine (still
// open), its writer and the save path.
func chainedEngine(t *testing.T, n int, share float64) (*Sharded, *ChainWriter, string) {
	t.Helper()
	s := blobSharded(t, n, share)
	path := filepath.Join(t.TempDir(), "alid.snap")
	c := NewChainWriter(s, path, 8)
	if err := c.Save(); err != nil { // full base
		t.Fatal(err)
	}
	for wi := 0; wi < 3; wi++ {
		chainWave(t, s, wi)
		if err := c.Save(); err != nil { // delta
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("chain length %d, want 3", c.Len())
	}
	return s, c, path
}

// blobSharded is blobEngine's initial detection routed over n shards with
// the given CompactEvictedShare, closed when the test ends.
func blobSharded(t *testing.T, n int, share float64) *Sharded {
	t.Helper()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 20, 0, 15)
	cfg := engineConfig()
	cfg.CompactEvictedShare = share
	s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: n}, initial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// damage flips one byte in the middle of a file.
func damage(t *testing.T, path string) {
	t.Helper()
	raw := readFile(t, path)
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The tentpole restore invariant: base + deltas replays, shard by shard, to
// the EXACT bytes a restore of a full save of the same state produces — and
// to the live engine's own encoding — and serves bit-identically.
func TestChainRestoreByteIdenticalToFull(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		s, _, path := chainedEngine(t, n, 0)
		_, chains := readLayout(t, path)
		for i, ch := range chains {
			if len(ch.Deltas) != 3 {
				t.Fatalf("shard %d chain has %d deltas, want 3", i, len(ch.Deltas))
			}
		}
		restored, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()

		full := filepath.Join(t.TempDir(), "full.snap")
		if err := s.SaveFiles(full); err != nil {
			t.Fatal(err)
		}
		fromFull, err := LoadSharded(full, ShardedLoadOptions{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer fromFull.Close()
		sameShardBytes(t, fromFull, restored)
		sameShardBytes(t, s, restored)
		sameAssigns(t, s, restored, append(crossQueries(120), []float64{-12, 8}, []float64{30, -5}))
		if es, rs := s.Stats(), restored.Stats(); rs.N != es.N || rs.LiveN != es.LiveN || rs.Commits != es.Commits {
			t.Fatalf("restored stats %+v vs live %+v", rs, es)
		}
	})
}

// A damaged TAIL — the last delta truncated or deleted — falls back to the
// longest complete prefix on that shard: its state as of the previous
// save, not a refusal and not a corrupted restore. The other shards
// restore in full.
func TestChainRestoreTruncatedTailFallsBackToPrefix(t *testing.T) {
	for name, hurt := range map[string]func(t *testing.T, p string){
		"truncated": func(t *testing.T, p string) {
			raw := readFile(t, p)
			if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"deleted": func(t *testing.T, p string) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			forShards(t, func(t *testing.T, n int) {
				s, _, path := chainedEngine(t, n, 0)
				hit := n - 1 // the shard whose tail is damaged
				_, chains := readLayout(t, path)
				hurt(t, filepath.Join(filepath.Dir(path), chains[hit].Deltas[2].Name))

				restored, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				for i := range chains {
					got, live := restored.shards[i].Stats().N, s.shards[i].Stats().N
					if i != hit {
						if got != live {
							t.Fatalf("undamaged shard %d restored N=%d, want %d", i, got, live)
						}
						continue
					}
					// The prefix state is delta 1's ToN, strictly less than
					// the live shard's final count.
					if want := int(chains[i].Deltas[1].ToN); got != want || got >= live {
						t.Fatalf("prefix restore N=%d, want %d (delta 1; live %d)", got, want, live)
					}
				}
			})
		})
	}
}

// Damage BEFORE an intact later delta is a broken middle: replaying around
// it would silently skip a window, so the restore refuses with
// ErrDeltaChainBroken. Same for a damaged base.
func TestChainRestoreRefusesBrokenMiddleAndBase(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		_, _, path := chainedEngine(t, n, 0)
		dir := filepath.Dir(path)
		_, chains := readLayout(t, path)
		hit := chains[n/2]

		// Corrupt delta 0 (deltas 1 and 2 remain intact).
		d0 := filepath.Join(dir, hit.Deltas[0].Name)
		raw := readFile(t, d0)
		damage(t, d0)
		if _, err := LoadSharded(path, ShardedLoadOptions{Shards: n}); !errors.Is(err, snapshot.ErrDeltaChainBroken) {
			t.Fatalf("broken middle: err %v, want ErrDeltaChainBroken", err)
		}
		if err := os.WriteFile(d0, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Corrupt the base: nothing can replay, all-or-nothing refusal.
		damage(t, filepath.Join(dir, hit.Base.Name))
		if _, err := LoadSharded(path, ShardedLoadOptions{Shards: n}); !errors.Is(err, snapshot.ErrDeltaChainBroken) {
			t.Fatalf("damaged base: err %v, want ErrDeltaChainBroken", err)
		}
	})
}

// A generation compaction ends its shard's chain: the next save re-roots
// that shard with a fresh full snapshot while every other shard keeps its
// base and appends a delta, and the restored engine carries the new
// generation.
func TestChainGenerationCompactionRerootsChain(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ctx := context.Background()
		// The waves evict under a tenth of every shard. Evicting the upper
		// three quarters of the hit shard (the first blob stays for the
		// assigns below) crosses the share, and its writer compacts before
		// the evict replies.
		s, c, path := chainedEngine(t, n, 0.5)
		_, before := readLayout(t, path)
		hit := n - 1 // the shard that compacts
		var ids []int
		nh := s.shards[hit].Stats().N
		for local := nh / 4; local < nh; local++ {
			ids = append(ids, local*n+hit)
		}
		if _, err := s.Evict(ctx, ids); err != nil {
			t.Fatal(err)
		}
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
		if want := min(n-1, 1) * 4; c.Len() != want {
			t.Fatalf("chain length %d after compaction save, want %d", c.Len(), want)
		}
		_, after := readLayout(t, path)
		for i, ch := range after {
			switch {
			case i == hit && (len(ch.Deltas) != 0 || ch.Base == before[i].Base || ch.Generation != 1):
				t.Fatalf("compacted shard %d not re-rooted: %+v", i, ch)
			case i != hit && (len(ch.Deltas) != 4 || ch.Base != before[i].Base):
				t.Fatalf("shard %d re-rooted by another shard's compaction: %+v", i, ch)
			}
		}

		restored, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if got, want := restored.Stats().Generation, s.Stats().Generation; got != want || got == 0 {
			t.Fatalf("restored generation %d, want %d (nonzero)", got, want)
		}
		// Ever-seen accounting is monotone ACROSS the restart: the retired-id
		// count rides the v5 snapshot.
		if got, want := restored.Stats().EverSeenIDs, s.Stats().EverSeenIDs; got != want || got == restored.Stats().N {
			t.Fatalf("restored ever-seen ids %d, want %d (> restored n %d)", got, want, restored.Stats().N)
		}
		sameShardBytes(t, s, restored)
		sameAssigns(t, s, restored, crossQueries(90))
	})
}

// every <= 0 degrades to full saves only: each save writes every shard in
// full, keeps no view between saves, and deletes the previous save's files,
// so the directory holds exactly what the manifest names.
func TestChainWriterFullOnly(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		s := blobSharded(t, n, 0)
		dir := t.TempDir()
		path := filepath.Join(dir, "alid.snap")
		c := NewChainWriter(s, path, 0)
		for i := 0; i < 3; i++ {
			chainWave(t, s, i)
			if err := c.Save(); err != nil {
				t.Fatal(err)
			}
			if c.Len() != 0 || c.prev != nil {
				t.Fatalf("save %d: chain length %d, views kept %v", i, c.Len(), c.prev != nil)
			}
		}
		m, chains := readLayout(t, path)
		want := []string{"alid.snap"}
		for i, ch := range chains {
			if ch != nil {
				want = append(want, m.Entries[i].Name, ch.Base.Name)
			}
		}
		slices.Sort(want)
		if got := dirNames(t, dir); !slices.Equal(got, want) {
			t.Fatalf("directory holds %v, manifest names %v", got, want)
		}
		restored, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		sameShardBytes(t, s, restored)
	})
}

// failedSaveKeepsPrevious saves an n-shard engine twice through a writer
// that keeps every deltas, then makes renameHook fail the files of a third
// save that fail names. The failed save must return the injected error
// under the prefix want, leave the directory holding exactly the files it
// held before, and leave the previous save restorable byte-identically;
// the next save must then succeed. The hook runs on every shard's
// goroutine, so it reads nothing but its arguments and fail.
func failedSaveKeepsPrevious(t *testing.T, n, every int, fail func(name string) bool, want string) {
	t.Helper()
	s := blobSharded(t, n, 0)
	dir := t.TempDir()
	path := filepath.Join(dir, "alid.snap")
	c := NewChainWriter(s, path, every)
	chainWave(t, s, 0)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	chainWave(t, s, 1)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	prev := shardBytes(t, s)
	files := dirNames(t, dir)

	chainWave(t, s, 2)
	injected := errors.New("injected rename failure")
	renameHook = func(name string) error {
		if fail(name) {
			return injected
		}
		return nil
	}
	err := c.Save()
	renameHook = nil
	if !errors.Is(err, injected) || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("every=%d: save err %v, want the injected failure under %q", every, err, want)
	}
	if got := dirNames(t, dir); !slices.Equal(got, files) {
		t.Fatalf("every=%d: the failed save left %v, the directory held %v", every, got, files)
	}

	restored, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
	if err != nil {
		t.Fatalf("every=%d: previous save lost: %v", every, err)
	}
	got := shardBytes(t, restored)
	restored.Close()
	for i := range prev {
		if !slices.Equal(prev[i], got[i]) {
			t.Fatalf("every=%d: shard %d restores %d bytes, previous save had %d", every, i, len(got[i]), len(prev[i]))
		}
	}
	if err := c.Save(); err != nil {
		t.Fatalf("every=%d: save after a failed one: %v", every, err)
	}
	again, err := LoadSharded(path, ShardedLoadOptions{Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	sameShardBytes(t, s, again)
	again.Close()
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// A save that fails right before its manifest rename — every new data and
// chain file already written — leaves the previous save exactly
// restorable, for a full save and for a delta save alike, and the next
// save succeeds.
func TestSaveFailureKeepsPreviousSave(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		for _, every := range []int{0, 8} {
			failedSaveKeepsPrevious(t, n, every, func(name string) bool { return name == "alid.snap" }, "engine: write alid.snap: ")
		}
	})
}

// A save in which one shard fails to write a file, while the other shards
// write theirs concurrently, returns that shard's error, removes every
// file of the save and keeps the previous save: shard 0 failing its base
// file in a full save, shard 3 failing its chain file in a delta save.
func TestSaveShardFailureKeepsPreviousSave(t *testing.T) {
	for _, tc := range []struct {
		every       int
		shard, kind string
	}{{0, "0", ".base"}, {8, "3", ".chain"}} {
		t.Run("shard="+tc.shard+tc.kind, func(t *testing.T) {
			fail := func(name string) bool {
				return strings.HasPrefix(name, "alid.snap.s"+tc.shard+".") && strings.HasSuffix(name, tc.kind)
			}
			failedSaveKeepsPrevious(t, 4, tc.every, fail, "engine: shard "+tc.shard+": ")
		})
	}
}

// Save is safe for concurrent use — the daemon's periodic loop and its
// shutdown save may overlap — while ingest and evictions continue. Saves
// serialize, each commits a restorable save, and the last one restores
// byte-identically.
func TestChainWriterConcurrentSaves(t *testing.T) {
	s := blobSharded(t, 4, 0)
	path := filepath.Join(t.TempDir(), "alid.snap")
	c := NewChainWriter(s, path, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := c.Save(); err != nil {
					errs <- err
					return
				}
				_ = c.Len()
			}
		}()
	}
	for wi := 0; wi < 4; wi++ {
		chainWave(t, s, wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSharded(path, ShardedLoadOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	sameShardBytes(t, s, restored)
}

// A delta holds its batch, not the committed state: a delta save after a
// fresh 64-point batch writes as many bytes at 50,000 committed points as
// at 10,000, by the chain's own count (≤ 1.2×).
func TestChainDeltaFollowsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the sizes do not depend on the race detector, and building 60,000 points under it takes about 25 s")
	}
	sizes := [2]int{10000, 50000}
	var bytes [2]float64
	for s, n := range sizes {
		e, c := newDeltaChain(t, n)
		rng := rand.New(rand.NewSource(95))
		const saves = 5
		for i := 0; i < saves; i++ {
			bytes[s] += float64(saveDelta(t, e, c, rng, i)) / saves
		}
	}
	t.Logf("delta bytes/save %.0f vs %.0f", bytes[0], bytes[1])
	if r := bytes[1] / bytes[0]; r > 1.2 {
		t.Errorf("a delta at n=%d writes %.0f bytes, %.2f× n=%d's %.0f (want ≤ 1.2×)", sizes[1], bytes[1], r, sizes[0], bytes[0])
	}
}
