package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alid/internal/snapshot"
	"alid/internal/stream"
)

// testLogger discards output: the tests exercise the build paths, not the
// log text.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "pts.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadCSV(t *testing.T) {
	pts, err := readCSV(writeTemp(t, "1.0,2.0\n3.5,-4.25\n\n0,0\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[1][1] != -4.25 {
		t.Fatalf("pts = %v", pts)
	}
	pts, err = readCSV(writeTemp(t, "1,2,0\n3,4,-1\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(pts[0]) != 2 {
		t.Fatalf("labeled pts = %v", pts)
	}
	if _, err := readCSV(writeTemp(t, "1,notanumber\n"), false); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := readCSV(writeTemp(t, "\n"), false); err == nil {
		t.Error("empty file accepted")
	}
}

func blobCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	for i := 0; i < 40; i++ {
		c := 0.0
		if i%2 == 1 {
			c = 15
		}
		fmt.Fprintf(&b, "%g,%g\n", c+rng.NormFloat64()*0.3, c+rng.NormFloat64()*0.3)
	}
	return writeTemp(t, b.String())
}

// The daemon's startup path: detect from CSV with auto-config, snapshot,
// then restore from the snapshot and keep serving the same answers — and a
// snapshot left by an older release (a single v5 file) restores as one
// shard and only as one shard.
func TestBuildEngineDetectSnapshotRestore(t *testing.T) {
	csv := blobCSV(t)
	snap := filepath.Join(t.TempDir(), "alid.snap")

	idx := indexConfig{Backend: "lsh", Mu: 8, Tables: 10, Seed: 1}
	eng, err := buildServing(testLogger(), 1, csv, false, snap, 64, 0, 0, 0, idx, 0.75, nil, stream.Retention{}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := eng.Stats()
	if st.N != 40 || st.Clusters == 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := eng.SaveFiles(snap); err != nil {
		t.Fatal(err)
	}

	// Restart: the snapshot wins over -in and tuning flags.
	restored, err := buildServing(testLogger(), 1, "", false, snap, 64, 0, 0, 0, idx, 0.75, nil, stream.Retention{}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if rs := restored.Stats(); rs.N != st.N || rs.Clusters != st.Clusters {
		t.Fatalf("restored stats %+v vs %+v", rs, st)
	}
	q := []float64{0.1, -0.1}
	a1, err := eng.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := restored.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("assign differs after restore: %+v vs %+v", a1, a2)
	}

	legacy := filepath.Join(t.TempDir(), "old.snap")
	raw, err := os.ReadFile("../../internal/snapshot/testdata/golden/v5.snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := buildServing(testLogger(), 1, csv, false, legacy, 64, 0, 0, 0, idx, 0.75, nil, stream.Retention{}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if st := old.Stats(); st.N == 40 || st.Generation != 1 {
		t.Fatalf("legacy restore ran detection or lost the generation: %+v", st)
	}
	if _, err := buildServing(testLogger(), 4, csv, false, legacy, 64, 0, 0, 0, idx, 0.75, nil, stream.Retention{}, false, 0); !errors.Is(err, snapshot.ErrShardCountMismatch) {
		t.Fatalf("legacy single-engine snapshot at -shards 4: err %v, want ErrShardCountMismatch", err)
	}
}

func TestBuildEngineEmptyStart(t *testing.T) {
	eng, err := buildServing(testLogger(), 1, "", false, "", 64, 0, 0.5, 2, indexConfig{Backend: "lsh", Mu: 8, Tables: 10, Seed: 1}, 0.75, nil, stream.Retention{}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.Stats(); st.N != 0 {
		t.Fatalf("stats %+v", st)
	}
}
