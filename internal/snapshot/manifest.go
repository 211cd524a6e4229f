// This file is the save manifest codec. Every save is one manifest that
// binds one delta chain per shard (see chain.go) into a single restorable
// unit:
//
//	magic "ALIDMANI" | u32 version | payload | u32 CRC-32 (IEEE) of payload
//
//	payload = u32 shards
//	        | u64 cursor               (id-mint cursor = Σ shard point counts)
//	        | shards × { name | u32 fileCRC | u64 size }
//
// In version 2 each entry names the shard's chain manifest; in the legacy
// version 1 it names the shard's snapshot file directly (read only, as a
// chain with a base and no deltas). Entry names are BASE names, at most
// maxNameLen bytes (the loader joins them with the manifest's directory, so
// a save can be moved as a directory); an empty shard writes an empty name
// with size 0 and CRC 0. fileCRC/size cover the named file's COMPLETE
// bytes, so the loader detects a truncated, corrupted or stale file before
// decoding it.
//
// Crash ordering: the saver writes every file of a save under a name no
// committed manifest uses, then renames the manifest into place. That
// rename alone commits the save; files the new manifest no longer names are
// deleted only after it (and its directory entry) is durable. A crash at
// any earlier point leaves the previous manifest and every file it names
// untouched.
//
// The shard count is structural, not operational: global point ids embed it
// (id = local·N + shard), so a manifest can only be restored at the count it
// was saved with. Mismatches fail with ErrShardCountMismatch rather than
// attempting any re-partitioning.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
)

// ManifestMagic identifies a save manifest stream.
const ManifestMagic = "ALIDMANI"

// ManifestVersion is the current manifest format version: entries name
// per-shard chain manifests.
const ManifestVersion = 2

// ManifestVersionV1 is the legacy manifest format, still readable: entries
// name per-shard snapshot files.
const ManifestVersionV1 = 1

// maxNameLen bounds a decoded entry name (the usual file-system limit on
// one path component). It is checked before the name is allocated, so a
// corrupt length is reported as corruption.
const maxNameLen = 255

// Sentinel errors for the failure modes a sharded restore must distinguish
// (wrapped with per-shard context; match with errors.Is).
var (
	// ErrShardCountMismatch: the manifest was saved under a different shard
	// count than the restore requested. Global ids embed the count, so no
	// re-partitioning is possible — restart with the saved count.
	ErrShardCountMismatch = errors.New("snapshot: shard count mismatch")
	// ErrShardFileMissing: a file a manifest or chain names does not exist.
	ErrShardFileMissing = errors.New("snapshot: shard file missing")
	// ErrShardFileCorrupt: a file's bytes do not match the size/CRC its
	// manifest or chain records (truncated write, bit rot, or a file from a
	// different save).
	ErrShardFileCorrupt = errors.New("snapshot: shard file corrupt")
)

// ShardEntry describes one shard's file within a manifest: its chain
// manifest (version 2) or its snapshot file (version 1).
type ShardEntry struct {
	// Name is the file's base name, "" for an empty shard (no file).
	Name string
	// CRC is the CRC-32 (IEEE) of the file's complete bytes; 0 when empty.
	CRC uint32
	// Size is the file's length in bytes; 0 when empty.
	Size uint64
}

// Manifest binds one file per shard into one restorable save.
type Manifest struct {
	// Version is the format version the manifest was decoded from;
	// WriteManifest always writes ManifestVersion.
	Version int
	// Shards is the shard count the save was taken under (== len(Entries)).
	Shards int
	// Cursor is the router's id-mint cursor: the total number of points ever
	// committed across all shards at save time (Σ per-shard N). The restored
	// router resumes round-robin placement at Cursor mod Shards.
	Cursor uint64
	// Entries are the per-shard files, indexed by shard.
	Entries []ShardEntry
}

// checkName accepts "" (no file) and base names of at most maxNameLen
// bytes: a name that could reach outside the manifest's directory is
// refused by both the encoders and the decoders.
func checkName(what, name string) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("%s is %d bytes, limit %d", what, len(name), maxNameLen)
	}
	if name != "" && (name == "." || name == ".." || filepath.Base(name) != name) {
		return fmt.Errorf("%s %q is not a base name", what, name)
	}
	return nil
}

func (w *writer) name(what, s string) {
	if w.err == nil {
		w.err = checkName(what, s)
	}
	w.u64(uint64(len(s)))
	w.write([]byte(s))
}

func (r *reader) name(what string) string {
	n := r.u64()
	if r.err == nil && n > maxNameLen {
		r.err = fmt.Errorf("%s is %d bytes, limit %d", what, n, maxNameLen)
	}
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	r.read(b)
	if r.err == nil {
		r.err = checkName(what, string(b))
	}
	if r.err != nil {
		return ""
	}
	return string(b)
}

// WriteManifest encodes m. The stream is buffered internally; the caller
// owns any underlying file and its sync/close.
func WriteManifest(out io.Writer, m *Manifest) error {
	if m.Shards <= 0 {
		return fmt.Errorf("snapshot: manifest shard count %d, want >= 1", m.Shards)
	}
	if len(m.Entries) != m.Shards {
		return fmt.Errorf("snapshot: manifest has %d entries for %d shards", len(m.Entries), m.Shards)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	w := &writer{w: bw, crc: crc32.NewIEEE()}
	if _, err := bw.WriteString(ManifestMagic); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.u32(ManifestVersion)
	w.u32(uint32(m.Shards))
	w.u64(m.Cursor)
	for _, e := range m.Entries {
		w.name("shard file name", e.Name)
		w.u32(e.CRC)
		w.u64(e.Size)
	}
	return finish(bw, w)
}

// ReadManifest decodes and CRC-verifies a manifest stream of either
// version.
func ReadManifest(in io.Reader) (*Manifest, error) {
	br := bufio.NewReaderSize(in, 1<<16)
	magic := make([]byte, len(ManifestMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if string(magic) != ManifestMagic {
		return nil, fmt.Errorf("snapshot: bad manifest magic %q", magic)
	}
	r := &reader{r: br, crc: crc32.NewIEEE()}
	version := r.u32()
	if r.err == nil && version != ManifestVersion && version != ManifestVersionV1 {
		return nil, fmt.Errorf("snapshot: unsupported manifest version %d (have %d)", version, ManifestVersion)
	}
	m := &Manifest{Version: int(version)}
	m.Shards = int(r.u32())
	if r.err == nil && (m.Shards <= 0 || m.Shards > 1<<20) {
		return nil, fmt.Errorf("snapshot: implausible manifest shard count %d", m.Shards)
	}
	m.Cursor = r.u64()
	for i := 0; r.err == nil && i < m.Shards; i++ {
		e := ShardEntry{Name: r.name("shard file name")}
		e.CRC = r.u32()
		e.Size = r.u64()
		m.Entries = append(m.Entries, e)
	}
	if r.err != nil {
		return nil, fmt.Errorf("snapshot: %w", r.err)
	}
	sum := r.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("snapshot: manifest missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return nil, fmt.Errorf("snapshot: manifest checksum mismatch: stored %08x, computed %08x", got, sum)
	}
	for i, e := range m.Entries {
		if e.Name == "" && (e.Size != 0 || e.CRC != 0) {
			return nil, fmt.Errorf("snapshot: manifest entry %d is empty but records %d bytes", i, e.Size)
		}
	}
	return m, nil
}
