package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func testManifest() *Manifest {
	return &Manifest{
		Shards: 4,
		Cursor: 1029,
		Entries: []ShardEntry{
			{Name: "alid.snap.shard0", CRC: 0xdeadbeef, Size: 4096},
			{Name: "alid.snap.shard1", CRC: 0x01020304, Size: 12345},
			{}, // empty shard: no file
			{Name: "alid.snap.shard3", CRC: 0xffffffff, Size: 1},
		},
	}
}

// The manifest codec is a fixed point: decode(encode(m)) == m and a
// re-encode is byte-identical — the same auditability contract as the
// snapshot codec itself.
func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion || got.Shards != m.Shards || got.Cursor != m.Cursor || len(got.Entries) != len(m.Entries) {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Entries[i], m.Entries[i])
		}
	}
	var buf2 bytes.Buffer
	if err := WriteManifest(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encode differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := testManifest()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Any flipped payload byte (and the CRC bytes themselves) must fail.
	for _, off := range []int{len(ManifestMagic) + 1, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := ReadManifest(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", off)
		}
	}
	// Truncation at every structural boundary must fail, never panic.
	for _, cut := range []int{4, len(ManifestMagic), len(ManifestMagic) + 6, len(good) - 3} {
		if _, err := ReadManifest(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := ReadManifest(bytes.NewReader([]byte("ALIDSNAP\x01\x00\x00\x00"))); err == nil {
		t.Fatal("snapshot magic accepted as manifest")
	}
}

func TestManifestValidation(t *testing.T) {
	if err := WriteManifest(&bytes.Buffer{}, &Manifest{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := WriteManifest(&bytes.Buffer{}, &Manifest{Shards: 2, Entries: []ShardEntry{{}}}); err == nil {
		t.Fatal("entry/shard count mismatch accepted")
	}
	// An empty-name entry recording bytes is self-contradictory.
	m := &Manifest{Shards: 1, Cursor: 1, Entries: []ShardEntry{{Name: "", Size: 10}}}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("empty entry with nonzero size accepted")
	}
}

// A version 1 manifest (entries name snapshot files) still decodes, and
// says which version it is: the loader treats each entry as a chain with a
// base and no deltas. The golden file is a 3-shard save whose shard 2 is
// empty.
func TestManifestReadsLegacyV1(t *testing.T) {
	m, err := ReadManifest(bytes.NewReader(golden(t, "manifest/alid.snap")))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != ManifestVersionV1 || m.Shards != 3 || len(m.Entries) != 3 {
		t.Fatalf("legacy manifest %+v", m)
	}
	if m.Entries[0].Name != "alid.snap.shard0" || m.Entries[2] != (ShardEntry{}) {
		t.Fatalf("legacy entries %+v", m.Entries)
	}
	for i, e := range m.Entries[:2] {
		if e.Size != uint64(len(golden(t, "manifest/"+e.Name))) {
			t.Fatalf("entry %d records %d bytes", i, e.Size)
		}
	}
}

// Entry names are decoded as data, not trusted: a declared length beyond
// maxNameLen fails before anything is allocated for it, and a name that is
// not a base name (a path, "." or "..") is refused by both the encoder and
// the decoder of manifests and chains.
func TestManifestRejectsHostileNames(t *testing.T) {
	// ALIDMANI, version 1, 1 shard, cursor 0, then a name length of 2^39:
	// 32 bytes that once made the decoder allocate 512 GiB.
	huge := []byte("ALIDMANI\x01\x00\x00\x00\x01\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x80\x00\x00\x00")
	if len(huge) != 32 {
		t.Fatalf("fixture is %d bytes", len(huge))
	}
	if _, err := ReadManifest(bytes.NewReader(huge)); err == nil {
		t.Fatal("2^39-byte name length accepted")
	}
	long := string(bytes.Repeat([]byte{'a'}, maxNameLen+1))
	for _, name := range []string{"../alid.snap", "dir/alid.snap", "/etc/passwd", ".", "..", long} {
		m := &Manifest{Shards: 1, Cursor: 1, Entries: []ShardEntry{{Name: name, Size: 1}}}
		if err := WriteManifest(&bytes.Buffer{}, m); err == nil {
			t.Fatalf("manifest with name %.20q written", name)
		}
		c := &Chain{Base: ChainEntry{Name: name, Size: 1}}
		if err := WriteChain(&bytes.Buffer{}, c); err == nil {
			t.Fatalf("chain with name %.20q written", name)
		}
		// The decoders refuse the same names when a writer did not.
		var mb, cb bytes.Buffer
		wm := &writer{w: &mb, crc: crc32.NewIEEE()}
		mb.WriteString(ManifestMagic)
		wm.u32(ManifestVersion)
		wm.u32(1)
		wm.u64(1)
		wm.u64(uint64(len(name)))
		wm.write([]byte(name))
		wm.u32(0)
		wm.u64(1)
		binary.Write(&mb, binary.LittleEndian, wm.crc.Sum32())
		if _, err := ReadManifest(&mb); err == nil {
			t.Fatalf("manifest decoded name %.20q", name)
		}
		wc := &writer{w: &cb, crc: crc32.NewIEEE()}
		cb.WriteString(ChainMagic)
		wc.u32(ChainVersion)
		wc.i64(0)
		wc.u64(uint64(len(name)))
		wc.write([]byte(name))
		wc.u32(0)
		wc.u64(1)
		wc.u64(1)
		wc.u64(0)
		binary.Write(&cb, binary.LittleEndian, wc.crc.Sum32())
		if _, err := ReadChain(&cb); err == nil {
			t.Fatalf("chain decoded name %.20q", name)
		}
	}
}
