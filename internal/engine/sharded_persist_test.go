package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"alid/internal/obs"
	"alid/internal/snapshot"
	"alid/internal/testutil"
)

// shardedFixture builds a 3-shard engine with committed traffic and a few
// evictions — enough structure that a restore has something to get wrong.
func shardedFixture(t *testing.T) *Sharded {
	t.Helper()
	ctx := context.Background()
	initial, _ := testutil.Blobs(3, [][]float64{{0, 0}, {15, 15}}, 60, 0.3, 15, 0, 15)
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 3}, initial)
	if err != nil {
		t.Fatal(err)
	}
	wave, _ := testutil.Blobs(56, [][]float64{{-10, 5}}, 30, 0.3, 5, 0, 15)
	if err := s.Ingest(ctx, wave); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(ctx, []int{1, 4, 9, 30, 31, 32}); err != nil {
		t.Fatal(err)
	}
	return s
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readLayout decodes the save manifest at path and every shard's chain
// file (nil for an empty shard).
func readLayout(t *testing.T, path string) (*snapshot.Manifest, []*snapshot.Chain) {
	t.Helper()
	m, err := snapshot.ReadManifest(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]*snapshot.Chain, m.Shards)
	for i, e := range m.Entries {
		if e.Name == "" {
			continue
		}
		if chains[i], err = snapshot.ReadChain(bytes.NewReader(readFile(t, filepath.Join(filepath.Dir(path), e.Name)))); err != nil {
			t.Fatal(err)
		}
	}
	return m, chains
}

// baseFile is the path of shard i's base snapshot in the save at path.
func baseFile(t *testing.T, path string, i int) string {
	t.Helper()
	_, chains := readLayout(t, path)
	return filepath.Join(filepath.Dir(path), chains[i].Base.Name)
}

// restoreBytes restores one engine from snapshot bytes through the
// per-shard restore LoadSharded uses.
func restoreBytes(b []byte, o ShardedLoadOptions) (*Engine, error) {
	s, err := snapshot.Read(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return restoreShard(s, o, nil, 0, 1)
}

// shardBytes is every shard's v5 encoding (nil for an empty shard).
func shardBytes(t *testing.T, s *Sharded) [][]byte {
	t.Helper()
	out := make([][]byte, s.n)
	for i, sh := range s.shards {
		if sh.View().Mat == nil {
			continue
		}
		var b bytes.Buffer
		if err := sh.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}

// sameShardBytes fails unless two engines encode byte-identically, shard
// by shard.
func sameShardBytes(t *testing.T, want, got *Sharded) {
	t.Helper()
	a, b := shardBytes(t, want), shardBytes(t, got)
	if len(a) != len(b) {
		t.Fatalf("%d shards vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("shard %d encodes differently: %d vs %d bytes", i, len(a[i]), len(b[i]))
		}
	}
}

// Save → load → re-save: the restored sharded engine answers bit-identically
// (single and batch, clusters, stats) and re-saving it reproduces the
// manifest and every shard file byte for byte — the sharded layout is a
// fixed point exactly like the v3 single-file codec.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	s := shardedFixture(t)
	defer s.Close()
	ctx := context.Background()

	dir := t.TempDir()
	path := filepath.Join(dir, "alid.snap")
	if err := s.SaveFiles(path); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.ReadManifest(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 {
		t.Fatalf("manifest shards = %d, want 3", m.Shards)
	}
	if want := uint64(s.Stats().N); m.Cursor != want {
		t.Fatalf("manifest cursor = %d, want %d", m.Cursor, want)
	}

	r, err := LoadSharded(path, ShardedLoadOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := crossQueries(120)
	for qi, q := range queries {
		a, err := s.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Assign(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: saved %+v vs restored %+v", qi, a, b)
		}
	}
	ba, err := s.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := r.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if ba[qi] != bb[qi] {
			t.Fatalf("batch query %d: saved %+v vs restored %+v", qi, ba[qi], bb[qi])
		}
	}
	sc, rc := s.Clusters(), r.Clusters()
	if len(sc) != len(rc) {
		t.Fatalf("clusters %d vs %d", len(sc), len(rc))
	}
	for i := range sc {
		if sc[i].Density != rc[i].Density || sc[i].Seed != rc[i].Seed {
			t.Fatalf("cluster %d differs after restore", i)
		}
	}
	ss, rs := s.Stats(), r.Stats()
	if ss.N != rs.N || ss.LiveN != rs.LiveN || ss.Clusters != rs.Clusters ||
		ss.Commits != rs.Commits || ss.Evicted != rs.Evicted {
		t.Fatalf("stats %+v vs restored %+v", ss, rs)
	}

	// Fixed point: re-save the restored engine into a second directory
	// (same base name, and the first save there too, so every file name
	// matches) — every byte equal.
	dir2 := t.TempDir()
	path2 := filepath.Join(dir2, "alid.snap")
	if err := r.SaveFiles(path2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), readFile(t, path2)) {
		t.Fatal("re-saved manifest differs")
	}
	_, chains := readLayout(t, path)
	for i, ch := range chains {
		for _, name := range []string{m.Entries[i].Name, ch.Base.Name} {
			a, b := readFile(t, filepath.Join(dir, name)), readFile(t, filepath.Join(dir2, name))
			if !bytes.Equal(a, b) {
				t.Fatalf("re-saved shard %d file %s differs: %d vs %d bytes", i, name, len(a), len(b))
			}
		}
	}

	// The restored router resumes the round-robin cursor: the next accepted
	// points land on the same shards the original router would pick.
	next, _ := testutil.Blobs(57, [][]float64{{0, 0}}, 9, 0.3, 0, 0, 15)
	for _, srv := range []*Sharded{s, r} {
		if err := srv.Ingest(ctx, next); err != nil {
			t.Fatal(err)
		}
		if err := srv.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if a, b := s.shards[i].Stats().N, r.shards[i].Stats().N; a != b {
			t.Fatalf("shard %d: %d points vs restored %d — cursor not restored", i, a, b)
		}
	}
}

// Every failure the manifest layer must distinguish, by sentinel: count
// mismatch, missing shard file, corrupt shard file — each with no partial
// restore (nothing left to Close, no goroutine leak under -race).
func TestShardedLoadFailures(t *testing.T) {
	s := shardedFixture(t)
	defer s.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "alid.snap")
	if err := s.SaveFiles(path); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadSharded(path, ShardedLoadOptions{Shards: 2}); !errors.Is(err, snapshot.ErrShardCountMismatch) {
		t.Fatalf("count mismatch: %v", err)
	}

	m, _ := readLayout(t, path)
	for _, f := range []string{baseFile(t, path, 1), filepath.Join(dir, m.Entries[0].Name)} {
		moved := f + ".gone"
		if err := os.Rename(f, moved); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSharded(path, ShardedLoadOptions{Shards: 3}); !errors.Is(err, snapshot.ErrShardFileMissing) {
			t.Fatalf("missing %s: %v", filepath.Base(f), err)
		}
		if err := os.Rename(moved, f); err != nil {
			t.Fatal(err)
		}
	}

	// Flip one byte mid-file: the whole-file CRC catches it BEFORE any
	// decode (the error is the manifest sentinel, not a codec error) — in a
	// base snapshot and in a chain file alike.
	for _, f := range []string{baseFile(t, path, 2), filepath.Join(dir, m.Entries[1].Name)} {
		good := readFile(t, f)
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSharded(path, ShardedLoadOptions{Shards: 3}); !errors.Is(err, snapshot.ErrShardFileCorrupt) {
			t.Fatalf("corrupt %s: %v", filepath.Base(f), err)
		}
		// Truncation is also corruption (size mismatch).
		if err := os.WriteFile(f, b[:len(b)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSharded(path, ShardedLoadOptions{Shards: 3}); !errors.Is(err, snapshot.ErrShardFileCorrupt) {
			t.Fatalf("truncated %s: %v", filepath.Base(f), err)
		}
		if err := os.WriteFile(f, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := LoadSharded(path, ShardedLoadOptions{Shards: 3})
	if err != nil {
		t.Fatalf("repaired save: %v", err)
	}
	r.Close()
}

// When the replays of several shards fail, the restore returns the lowest
// shard's error — the one a shard-by-shard restore meets first — and
// leaves no goroutine behind: no replay helper, and no writer of the shard
// it had already built.
func TestShardedLoadReturnsLowestShardError(t *testing.T) {
	s := blobSharded(t, 4, 0)
	path := filepath.Join(t.TempDir(), "alid.snap")
	if err := s.SaveFiles(path); err != nil {
		t.Fatal(err)
	}
	damage(t, baseFile(t, path, 1))
	damage(t, baseFile(t, path, 3))
	before := runtime.NumGoroutine()
	_, err := LoadSharded(path, ShardedLoadOptions{Shards: 4})
	if !errors.Is(err, snapshot.ErrDeltaChainBroken) || !strings.HasPrefix(err.Error(), "engine: shard 1: ") {
		t.Fatalf("err %v, want shard 1's ErrDeltaChainBroken", err)
	}
	// A goroutine may still be exiting after it signalled its end.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the failed restore, %d before", got, before)
	}
}

// A sharded save with genuinely empty shards (fewer committed points than
// shards) round-trips: empty entries in the manifest, empty engines on
// restore, and the placement cursor still resumes exactly.
func TestShardedSaveLoadEmptyShards(t *testing.T) {
	ctx := context.Background()
	s, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 5},
		[][]float64{{0, 0}, {0.1, 0}, {0, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "alid.snap")
	if err := s.SaveFiles(path); err != nil {
		t.Fatal(err)
	}
	m, _ := readLayout(t, path)
	if m.Cursor != 3 || m.Entries[3].Name != "" || m.Entries[4].Name != "" {
		t.Fatalf("manifest %+v", m)
	}

	r, err := LoadSharded(path, ShardedLoadOptions{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.N != 3 {
		t.Fatalf("restored N = %d, want 3", st.N)
	}
	// Cursor resumes at 3: the next points go to shards 3, 4, 0.
	if err := r.Ingest(ctx, [][]float64{{1, 1}, {2, 2}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 1, 1, 1, 1} {
		if got := r.shards[i].Stats().N; got != want {
			t.Fatalf("shard %d: N = %d, want %d", i, got, want)
		}
	}

	// An all-empty save is refused outright.
	e, err := NewSharded(ShardedConfig{Engine: engineConfig(), Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SaveFiles(filepath.Join(dir, "empty.snap")); err == nil {
		t.Fatal("all-empty sharded save accepted")
	}
}

// shardSeries parses reg's text exposition into the shard label of every
// shard-labeled sample, per family, in the order WriteText lists them —
// the order the shards registered in.
func shardSeries(t *testing.T, reg *obs.Registry) map[string][]int {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string][]int{}
	fam := ""
	for _, line := range strings.Split(b.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, _, _ = strings.Cut(name, " ")
			continue
		}
		_, rest, ok := strings.Cut(line, `shard="`)
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, _, _ := strings.Cut(rest, `"`)
		k, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("family %s: shard label %q", fam, v)
		}
		out[fam] = append(out[fam], k)
	}
	return out
}

// requireShardOrder fails unless every shard-labeled family of reg lists
// its samples in shard order and alid_commits_total lists all n shards.
func requireShardOrder(t *testing.T, reg *obs.Registry, n int) {
	t.Helper()
	fams := shardSeries(t, reg)
	for fam, shards := range fams {
		for j := 1; j < len(shards); j++ {
			if shards[j] < shards[j-1] {
				t.Errorf("%s lists shard %d after shard %d: %v", fam, shards[j], shards[j-1], shards)
				break
			}
		}
	}
	if got := fams["alid_commits_total"]; len(got) != n {
		t.Errorf("alid_commits_total lists shards %v, want %d shards", got, n)
	}
}

// /metrics lists every family's samples in shard order after a
// construction, whose commits run concurrently, and after a restore of a
// save whose shard 1 is empty, whose replays run concurrently and whose
// empty shard is rebuilt between restored ones.
func TestShardedMetricsShardOrder(t *testing.T) {
	ctx := context.Background()
	pts, _ := testutil.ServeWorkload(4000, 16, 50)
	cfg := benchConfig()
	cfg.Obs = obs.NewRegistry()
	cfg.CompactEvictedShare = 0.5
	s, err := NewSharded(ShardedConfig{Engine: cfg, Shards: 4}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	requireShardOrder(t, cfg.Obs, 4)

	// Evicting all of shard 1 compacts it back to the empty state, so the
	// save records it as empty.
	var ids []int
	for local := 0; local < s.shards[1].Stats().N; local++ {
		ids = append(ids, local*4+1)
	}
	if _, err := s.Evict(ctx, ids); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alid.snap")
	if err := s.SaveFiles(path); err != nil {
		t.Fatal(err)
	}
	if m, _ := readLayout(t, path); m.Entries[1].Name != "" {
		t.Fatalf("shard 1 saved as %q, want an empty entry", m.Entries[1].Name)
	}
	reg := obs.NewRegistry()
	r, err := LoadSharded(path, ShardedLoadOptions{Shards: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireShardOrder(t, reg, 4)
}
