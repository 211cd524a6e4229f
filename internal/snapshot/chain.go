// This file is the delta-chain manifest codec: the small file that binds
// one shard's full snapshot and its ordered deltas into a restorable unit.
// A save manifest (manifest.go) names one chain per shard.
//
//	magic "ALIDCHAI" | u32 version | payload | u32 CRC-32 (IEEE) of payload
//
//	payload = i64 generation            (id generation of the whole chain)
//	        | base  { name | u32 fileCRC | u64 size | u64 toN }
//	        | u64 deltas × { name | u32 fileCRC | u64 size | u64 toN }
//
// Entry names are BASE names (the loader joins them with the manifest's
// directory); fileCRC/size cover each file's COMPLETE bytes, so the loader
// checks every file before decoding it. toN is the point count after the
// entry, letting the loader sanity-check continuity before decoding
// anything. A chain file is written once under a fresh name and never
// rewritten: extending a chain writes a new chain file, committed with the
// rest of the save by the save manifest's rename. A chain file at
// <snapshot>.chain with no save manifest is the legacy single-engine
// layout, read as a one-shard save.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// ChainMagic identifies a delta-chain manifest stream.
const ChainMagic = "ALIDCHAI"

// ChainVersion is the current chain-manifest format version.
const ChainVersion = 1

// ChainEntry describes one file of a delta chain.
type ChainEntry struct {
	// Name is the file's base name.
	Name string
	// CRC is the CRC-32 (IEEE) of the file's complete bytes.
	CRC uint32
	// Size is the file's length in bytes.
	Size uint64
	// ToN is the committed point count after restoring through this entry.
	ToN uint64
}

// Chain binds a full snapshot and its ordered deltas into one restorable
// save.
type Chain struct {
	// Generation is the id generation every entry belongs to (a generation
	// compaction ends a chain; the next save starts a fresh one).
	Generation int
	// Base is the full snapshot the chain starts from.
	Base ChainEntry
	// Deltas are the incremental saves, in application order.
	Deltas []ChainEntry
}

// WriteChain encodes c. The stream is buffered internally; the caller owns
// any underlying file and its sync/close.
func WriteChain(out io.Writer, c *Chain) error {
	if c.Base.Name == "" {
		return fmt.Errorf("snapshot: chain has no base snapshot")
	}
	if c.Generation < 0 {
		return fmt.Errorf("snapshot: chain has negative generation %d", c.Generation)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	w := &writer{w: bw, crc: crc32.NewIEEE()}
	if _, err := bw.WriteString(ChainMagic); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.u32(ChainVersion)
	w.i64(int64(c.Generation))
	entry := func(e ChainEntry) {
		w.name("chain entry name", e.Name)
		w.u32(e.CRC)
		w.u64(e.Size)
		w.u64(e.ToN)
	}
	entry(c.Base)
	w.u64(uint64(len(c.Deltas)))
	for _, e := range c.Deltas {
		entry(e)
	}
	return finish(bw, w)
}

// ReadChain decodes and CRC-verifies a chain manifest.
func ReadChain(in io.Reader) (*Chain, error) {
	br := bufio.NewReaderSize(in, 1<<16)
	magic := make([]byte, len(ChainMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if string(magic) != ChainMagic {
		return nil, fmt.Errorf("snapshot: bad chain magic %q", magic)
	}
	r := &reader{r: br, crc: crc32.NewIEEE()}
	version := r.u32()
	if r.err == nil && version != ChainVersion {
		return nil, fmt.Errorf("snapshot: unsupported chain version %d (have %d)", version, ChainVersion)
	}
	c := &Chain{Generation: int(r.i64())}
	entry := func(what string) ChainEntry {
		e := ChainEntry{Name: r.name(what)}
		e.CRC = r.u32()
		e.Size = r.u64()
		e.ToN = r.u64()
		return e
	}
	c.Base = entry("chain base name")
	nDeltas := r.length("chain delta list")
	for i := 0; r.err == nil && i < nDeltas; i++ {
		c.Deltas = append(c.Deltas, entry("chain delta name"))
	}
	if r.err != nil {
		return nil, fmt.Errorf("snapshot: %w", r.err)
	}
	sum := r.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("snapshot: chain missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return nil, fmt.Errorf("snapshot: chain checksum mismatch: stored %08x, computed %08x", got, sum)
	}
	if c.Base.Name == "" {
		return nil, fmt.Errorf("snapshot: chain has no base snapshot")
	}
	if c.Generation < 0 {
		return nil, fmt.Errorf("snapshot: chain has negative generation %d", c.Generation)
	}
	return c, nil
}
