package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// golden reads a file from testdata/golden. The files were written at
// commit 61e958d, the last release with the v1–v4 writers, the ALIDCHAI
// single-engine delta chain and the version 1 manifest: each legacy file
// by that release's writer, and each *.want / want.shard<i> file by
// restoring the legacy input with that release's loader and re-encoding
// it with its v5 writer. testdata/golden/README.md lists the states and
// the generator.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenVersions maps each single-file golden input to the format version
// it was written in.
var goldenVersions = []struct {
	name    string
	file    string
	version uint32
}{
	{"v1", "v1.snap", VersionV1},
	{"v2", "v2.snap", VersionV2},
	{"v3", "v3-tombstones.snap", VersionV3},
	{"v4", "v4-lsh.snap", VersionV4},
	{"v4-minhash", "v4-minhash.snap", VersionV4},
	{"v5", "v5.snap", Version},
}

// Every readable format version decodes its golden file, and writing the
// decoded state reproduces the v5 bytes the generating release produced
// from the same file; the v5 encoding is then a byte fixed point of
// read → rewrite. This pins the whole shim stack against the writers that
// defined each version.
func TestVersionsWriteReadRewriteFixedPoint(t *testing.T) {
	for _, tc := range goldenVersions {
		t.Run(tc.name, func(t *testing.T) {
			raw := golden(t, tc.file)
			if v := uint32(raw[8]) | uint32(raw[9])<<8; v != tc.version {
				t.Fatalf("%s is version %d, want %d", tc.file, v, tc.version)
			}
			got, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var v5 bytes.Buffer
			if err := Write(&v5, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v5.Bytes(), golden(t, tc.file+".want")) {
				t.Fatalf("%s: v5 re-encode differs from golden (%d bytes)", tc.file, v5.Len())
			}
			again, err := Read(bytes.NewReader(v5.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var v5Again bytes.Buffer
			if err := Write(&v5Again, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v5.Bytes(), v5Again.Bytes()) {
				t.Fatalf("%s: v5 encode(decode(x)) != x", tc.file)
			}
		})
	}
}

// v5 carries the id-lifecycle counters (generation + retired-id count)
// through the round trip; files of every earlier version decode with both
// at zero, since they predate renumbering.
func TestGenerationPersistsOnlyInV5(t *testing.T) {
	s := sample(t)
	s.Generation = 3
	s.RetiredIDs = 41

	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 3 {
		t.Fatalf("generation = %d, want 3", got.Generation)
	}
	if got.RetiredIDs != 41 {
		t.Fatalf("retired ids = %d, want 41", got.RetiredIDs)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("v5 with generation: encode(decode(x)) != x")
	}

	for _, tc := range goldenVersions {
		got, err := Read(bytes.NewReader(golden(t, tc.file)))
		if err != nil {
			t.Fatal(err)
		}
		renumbered := got.Generation != 0 || got.RetiredIDs != 0
		if renumbered != (tc.version == Version) {
			t.Fatalf("%s: generation %d, retired ids %d", tc.file, got.Generation, got.RetiredIDs)
		}
	}
}
