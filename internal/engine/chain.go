// This file is the save routine. Every save is one manifest at the save
// path naming one delta chain per shard: the shard's last full snapshot
// plus the deltas saved since. A ChainWriter remembers the view each
// shard's chain ends at and diffs the next published view against it, so a
// delta costs O(window), not O(n). A generation compaction renumbers ids,
// which no diff can express, so it re-roots that shard's chain (the next
// save writes it in full); the other shards' chains go on. SaveFiles is the
// same save with no deltas.
//
// Crash ordering: every file of a save is written under a name no
// committed manifest uses (a fresh save sequence number), fsynced, and its
// directory entry made durable; then the manifest is renamed over the save
// path. That rename alone commits the save. Only after the directory is
// synced again are the files the new manifest no longer names deleted — so
// a crash or an error at any earlier point leaves the previous save exactly
// as it was.
package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"alid/internal/matrix"
	"alid/internal/snapshot"
	"alid/internal/stream"
)

// buildDelta diffs two published views of the SAME generation (prev saved
// earlier than cur) into a delta snapshot. Ids are stable within a
// generation, so the diff is positional: appended rows, liveness
// transitions, label changes, and cluster patches (published cluster values
// are immutable — the writer builds fresh values on every change — so
// pointer inequality is exactly "changed").
func buildDelta(prev, cur stream.View) *snapshot.Delta {
	fromN, toN := prev.Mat.N, cur.Mat.N
	dim := cur.Mat.D
	d := &snapshot.Delta{
		Generation:   cur.Generation,
		FromN:        fromN,
		ToN:          toN,
		D:            dim,
		ClusterCount: len(cur.Clusters),
		Commits:      cur.Commits,
	}
	if toN > fromN {
		d.Rows = make([]float64, (toN-fromN)*dim)
		d.NewLabels = make([]int, toN-fromN)
		for i := fromN; i < toN; i++ {
			// An appended id whose chunk was already released has no row
			// bytes left; encode zeros — replay appends them, the evict pass
			// below kills them, and the chunk re-releases to the same
			// zero-length encoding (see snapshot/delta.go).
			if !cur.Mat.ChunkReleased(i >> matrix.ChunkShift) {
				copy(d.Rows[(i-fromN)*dim:(i-fromN+1)*dim], cur.Mat.Row(i))
			}
			d.NewLabels[i-fromN] = cur.Labels.At(i)
		}
	}
	for i := 0; i < fromN; i++ {
		if !cur.Mat.Live(i) {
			if prev.Mat.Live(i) {
				d.Evicts = append(d.Evicts, i)
			}
			continue
		}
		if was, is := prev.Labels.At(i), cur.Labels.At(i); was != is {
			d.LabelChanges = append(d.LabelChanges, snapshot.LabelChange{ID: i, Label: is})
		}
	}
	for i := fromN; i < toN; i++ {
		if !cur.Mat.Live(i) {
			d.Evicts = append(d.Evicts, i)
		}
	}
	for i, cl := range cur.Clusters {
		if i >= len(prev.Clusters) || prev.Clusters[i] != cl {
			d.Patches = append(d.Patches, snapshot.ClusterPatch{Index: i, Cluster: cl})
		}
	}
	return d
}

// ChainWriter saves a sharded engine at path, one chain per shard; every
// is the number of deltas a shard's chain may grow to before it is
// re-rooted with a full snapshot (≤ 0: every save is full, and no view is
// kept between saves). Save is safe for concurrent use, but there must be
// one writer per path: a save deletes the files of the save before it.
type ChainWriter struct {
	s     *Sharded
	path  string
	every int

	mu     sync.Mutex
	chains []*snapshot.Chain // per shard, the committed chain (nil: none)
	prev   []stream.View     // per shard, the view its chain ends at (every > 0 only)
	length atomic.Int64      // the longest committed chain's delta count
}

// NewChainWriter builds a writer for s rooted at path. Its first save is
// full on every shard.
func NewChainWriter(s *Sharded, path string, every int) *ChainWriter {
	return &ChainWriter{s: s, path: path, every: every, chains: make([]*snapshot.Chain, s.n)}
}

// Len reports the longest per-shard delta chain: the most deltas a restore
// replays on any one shard (0 right after a full save). Safe to call from
// any goroutine (the /v1/stats path).
func (c *ChainWriter) Len() int { return int(c.length.Load()) }

// SaveFiles saves s at path in full: a manifest naming, per non-empty
// shard, a chain holding one snapshot file. Every shard's published view
// is pinned up front and the manifest's id-mint cursor is the sum of
// exactly those views' point counts, so cursor and files agree even while
// ingest continues (flush first for a point-in-time-complete save). A
// failed save leaves the previous one restorable.
func (s *Sharded) SaveFiles(path string) error {
	return NewChainWriter(s, path, 0).Save()
}

// saveName is the file name of one shard's base, delta or chain file
// written by save number seq.
func saveName(base string, shard, seq int, kind string) string {
	return base + ".s" + strconv.Itoa(shard) + "." + strconv.Itoa(seq) + "." + kind
}

// listSaveFiles returns the files beside the manifest base that a save may
// have left: chain, base and delta files (saveName), the legacy layouts'
// <base>.shard<i>, <base>.chain and <base>.delta<k>, and the temp files of
// an interrupted write. next is one more than the highest save number in
// use, so the next save's names are new.
func listSaveFiles(dir, base string) (names []string, next int, err error) {
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(base) +
		`(?:\.s\d+\.(\d+)\.(?:base|delta|chain)|\.shard\d+|\.chain|\.delta\d+)?(?:\.tmp\d+)?$`)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: %w", err)
	}
	next = 1
	for _, e := range ents {
		m := re.FindStringSubmatch(e.Name())
		if m == nil || e.Name() == base {
			continue
		}
		names = append(names, e.Name())
		if k, err := strconv.Atoi(m[1]); err == nil && k >= next {
			next = k + 1
		}
	}
	return names, next, nil
}

// Save writes one save of the published state. Per non-empty shard it
// writes a full snapshot when the shard's chain needs (re)rooting — first
// save, generation changed, or `every` deltas accumulated — and a delta
// otherwise, then the shard's new chain file; then it commits the manifest
// (see the file comment for the crash ordering). The shards write their
// files concurrently on the router's pool and the results merge in shard
// order: a failure returns the lowest failing shard's error and removes
// every file any shard wrote.
func (c *ChainWriter) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]stream.View, c.s.n)
	total := 0
	for i, sh := range c.s.shards {
		views[i] = sh.View()
		if views[i].Mat != nil {
			total += views[i].Mat.N
		}
	}
	if total == 0 {
		return fmt.Errorf("engine: nothing committed to snapshot")
	}
	dir, base := filepath.Dir(c.path), filepath.Base(c.path)
	old, seq, err := listSaveFiles(dir, base)
	if err != nil {
		return err
	}

	saves := make([]shardSave, c.s.n)
	c.s.pool.Each(c.s.n, func(_, i int) {
		if views[i].Mat != nil { // an empty shard gets an empty manifest entry, no files
			saves[i] = c.saveShard(dir, base, seq, i, views[i])
		}
	})
	committed := false
	defer func() {
		if !committed {
			for _, sv := range saves {
				for _, name := range sv.written {
					os.Remove(filepath.Join(dir, name))
				}
			}
		}
	}()
	m := &snapshot.Manifest{Shards: c.s.n, Cursor: uint64(total), Entries: make([]snapshot.ShardEntry, c.s.n)}
	chains := make([]*snapshot.Chain, c.s.n)
	named := map[string]bool{} // every file the new manifest names
	longest := 0
	for i, sv := range saves {
		if sv.err != nil {
			return sv.err
		}
		if sv.chain == nil {
			continue
		}
		chains[i], m.Entries[i] = sv.chain, sv.entry
		longest = max(longest, len(sv.chain.Deltas))
		named[sv.entry.Name], named[sv.chain.Base.Name] = true, true
		for _, d := range sv.chain.Deltas {
			named[d.Name] = true
		}
	}
	// The new files' names must be durable before the manifest names them.
	if err := syncDir(dir); err != nil {
		return err
	}
	if _, err := writeFile(dir, base, func(w io.Writer) error { return snapshot.WriteManifest(w, m) }); err != nil {
		return err
	}
	committed = true
	c.chains = chains
	if c.every > 0 {
		c.prev = views
	}
	c.length.Store(int64(longest))
	// The commit must be durable before the previous save's files go.
	if err := syncDir(dir); err != nil {
		return err
	}
	for _, name := range old {
		if !named[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// shardSave is one shard's slot in Save's fan-out: its manifest entry, its
// new chain, the files it wrote and its error.
type shardSave struct {
	entry   snapshot.ShardEntry
	chain   *snapshot.Chain
	written []string
	err     error
}

// saveShard writes shard i's files of save seq from its pinned view v: a
// base snapshot or a delta, then the chain file naming it. It reads the
// writer's state of shard i and changes none, so the shards of one save
// can write concurrently.
func (c *ChainWriter) saveShard(dir, base string, seq, i int, v stream.View) (sv shardSave) {
	ch := c.chains[i]
	full := ch == nil || c.every <= 0 || v.Generation != ch.Generation || len(ch.Deltas) >= c.every
	var e snapshot.ChainEntry
	var err error
	if full {
		e, err = writeFile(dir, saveName(base, i, seq, "base"), func(w io.Writer) error {
			return c.s.shards[i].writeSnapshotView(w, v)
		})
	} else {
		d := buildDelta(c.prev[i], v)
		e, err = writeFile(dir, saveName(base, i, seq, "delta"), func(w io.Writer) error {
			return snapshot.WriteDelta(w, d)
		})
	}
	if err != nil {
		sv.err = fmt.Errorf("engine: shard %d: %w", i, err)
		return sv
	}
	sv.written = append(sv.written, e.Name)
	e.ToN = uint64(v.Mat.N)
	if full {
		sv.chain = &snapshot.Chain{Generation: v.Generation, Base: e}
	} else {
		c.s.shards[i].met.deltaBytes.Add(int64(e.Size))
		sv.chain = &snapshot.Chain{Generation: ch.Generation, Base: ch.Base, Deltas: append(slices.Clip(ch.Deltas), e)}
	}
	ce, err := writeFile(dir, saveName(base, i, seq, "chain"), func(w io.Writer) error {
		return snapshot.WriteChain(w, sv.chain)
	})
	if err != nil {
		sv.err = fmt.Errorf("engine: shard %d: %w", i, err)
		return sv
	}
	sv.written = append(sv.written, ce.Name)
	sv.entry = snapshot.ShardEntry{Name: ce.Name, CRC: ce.CRC, Size: ce.Size}
	return sv
}
