// This file is the restore routine. LoadSharded reads a save in any layout
// this package has written — the manifest of per-shard chains that every
// save now writes, and, read as legacy layouts, the version 1 manifest over
// per-shard snapshot files, the single-engine delta chain and the single
// snapshot file — and rebuilds the engine all or nothing. Every file a
// manifest or chain names is checked against its recorded size and
// whole-file CRC before it is decoded, streaming it once for the check and
// once for the decode. The restore refuses a shard count other than the
// saved one (ids embed the count).
package engine

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"time"

	"alid/internal/obs"
	"alid/internal/par"
	"alid/internal/snapshot"
	"alid/internal/stream"
)

// ShardedLoadOptions are the runtime knobs of a restore: none is persisted,
// because none changes answers (scheduling, queueing, observability) —
// except Retention, an operational override, and the expected shard count.
type ShardedLoadOptions struct {
	// Shards is the expected shard count; 0 adopts the saved count. A
	// non-zero count that differs from the save fails with
	// snapshot.ErrShardCountMismatch (ids embed the count — repartitioning
	// a save is not possible). A legacy single-engine save has one shard.
	Shards int
	// QueueSize bounds each restored shard's ingest queue (0 = default).
	QueueSize int
	// Pool is the intra-detection parallel pool, shared by all shards
	// (nil = serial).
	Pool *par.Pool
	// Retention, when non-nil, is the TOTAL live-point policy, split across
	// shards exactly as NewSharded splits it; nil keeps each shard's
	// persisted policy.
	Retention *stream.Retention
	// Obs is the shared registry (nil = one private registry).
	Obs *obs.Registry
	// Logger receives writer-side logs; each shard logs with a shard attr
	// when there is more than one.
	Logger *slog.Logger
	// Backend, when non-empty, is the index backend the caller expects of
	// every shard ("lsh" or "minhash"); a shard carrying the other backend
	// fails the restore with snapshot.ErrBackendMismatch instead of
	// reinterpreting set signatures as dense coordinates (or vice versa).
	Backend string
	// CompactEvictedShare is each restored shard's auto-compaction trigger
	// (see Config.CompactEvictedShare; 0 disables). Operational, not
	// persisted; shards compact their LOCAL id space independently.
	CompactEvictedShare float64
}

// LoadSharded restores a sharded engine from the save at path (see the
// file comment for the layouts read). Each shard replays its chain: the
// base snapshot, then every delta of the longest intact prefix — a damaged
// tail falls back to an earlier save of that shard, while a damaged delta
// followed by an intact one, or a damaged base, refuses with
// snapshot.ErrDeltaChainBroken. Shards the save records as empty are
// rebuilt empty under the restored configuration. The shards replay
// concurrently on the router's pool; they are then built in shard order,
// and the first failure in shard order closes every shard already built
// and is returned — there is no partial restore.
func LoadSharded(path string, o ShardedLoadOptions) (*Sharded, error) {
	cursor, chains, err := readSave(path)
	if err != nil {
		return nil, err
	}
	n := len(chains)
	if o.Shards != 0 && o.Shards != n {
		return nil, fmt.Errorf("engine: save %s has %d shards, asked to restore %d: %w",
			path, n, o.Shards, snapshot.ErrShardCountMismatch)
	}
	first := slices.IndexFunc(chains, func(c *snapshot.Chain) bool { return c != nil })
	if first < 0 {
		return nil, fmt.Errorf("engine: save %s records no shard files", path)
	}
	reg := o.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	// replayed is one shard's slot in the replay fan-out: its decoded state,
	// the bytes and time the replay took, and its error.
	type replayed struct {
		snap *snapshot.Snapshot
		read int64
		took time.Duration
		err  error
	}
	pool := par.New(-1)
	dir := filepath.Dir(path)
	res := make([]replayed, n)
	pool.Each(n, func(_, i int) {
		if chains[i] == nil {
			return
		}
		start := obs.Now()
		snap, read, err := replay(dir, chains[i])
		if err != nil {
			res[i].err = fmt.Errorf("engine: shard %d: %w", i, err)
			return
		}
		res[i] = replayed{snap: snap, read: read, took: obs.Now().Sub(start)}
	})
	// Empty shards adopt the first restored shard's configuration (the
	// whole save shares one) with their own label and retention share, so
	// they need its replay: a shard-by-shard restore stops there too.
	if err := res[first].err; err != nil {
		return nil, err
	}
	shards := make([]*Engine, n)
	fail := func(err error) (*Sharded, error) {
		for _, sh := range shards {
			if sh != nil {
				sh.Close()
			}
		}
		return nil, err
	}
	for i, r := range res {
		if chains[i] == nil {
			eng, err := New(restoreConfig(res[first].snap, o, reg, i, n), nil)
			if err != nil {
				return fail(fmt.Errorf("engine: shard %d: %w", i, err))
			}
			shards[i] = eng
			continue
		}
		if r.err != nil {
			return fail(r.err)
		}
		// Back-dated by the replay, the clock covers this shard's replay and
		// restore but not its wait for the other shards.
		start := obs.Now().Add(-r.took)
		eng, err := restoreShard(r.snap, o, reg, i, n)
		if err != nil {
			return fail(fmt.Errorf("engine: shard %d: %w", i, err))
		}
		// The engine's metrics exist only now, so load cost is credited to
		// the registry of the engine the load produced.
		eng.met.loadBytes.Add(r.read)
		eng.met.snapLoad.ObserveSince(start)
		shards[i] = eng
	}

	// The router's template Config keeps the TOTAL retention policy
	// (matching NewSharded's contract): the operational override verbatim,
	// else the per-shard persisted budget scaled back up.
	total := shards[first].Config()
	total.Obs, total.Logger, total.ShardLabel = reg, o.Logger, ""
	if o.Retention != nil {
		total.Retention = *o.Retention
	} else if total.Retention.MaxPoints > 0 {
		total.Retention.MaxPoints *= n
	}

	s := &Sharded{
		cfg:    ShardedConfig{Engine: total, Shards: n},
		shards: shards,
		n:      n,
		pool:   pool,
		split:  make([][][]float64, n),
		obsReg: reg,
	}
	s.rr = int(cursor % uint64(n))
	s.dim = s.Dim()
	s.finish(reg)
	return s, nil
}

// readSave reads the save at path into its id-mint cursor and one chain per
// shard (nil for an empty shard):
//   - a version 2 manifest names each shard's chain file, which is checked
//     against the manifest and decoded;
//   - a version 1 manifest names each shard's snapshot file: a chain with
//     that base and no deltas;
//   - a snapshot file with a chain file at <path>.chain is a single-engine
//     delta chain: one shard;
//   - a snapshot file alone is one shard with no deltas.
//
// A manifest wins over a leftover <path>.chain, which only the legacy
// layout reads.
func readSave(path string) (uint64, []*snapshot.Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("engine: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic, err := br.Peek(len(snapshot.Magic))
	if err != nil {
		return 0, nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	switch string(magic) {
	case snapshot.ManifestMagic:
		m, err := snapshot.ReadManifest(br)
		if err != nil {
			return 0, nil, err
		}
		chains := make([]*snapshot.Chain, m.Shards)
		for i, e := range m.Entries {
			entry := snapshot.ChainEntry{Name: e.Name, CRC: e.CRC, Size: e.Size}
			switch {
			case e.Name == "":
			case m.Version == snapshot.ManifestVersionV1:
				chains[i] = &snapshot.Chain{Base: entry}
			default:
				if err := checkFile(dir, entry); err != nil {
					return 0, nil, fmt.Errorf("engine: shard %d chain: %w", i, err)
				}
				if _, err := decodeFile(dir, e.Name, func(r io.Reader) (err error) {
					chains[i], err = snapshot.ReadChain(r)
					return err
				}); err != nil {
					return 0, nil, fmt.Errorf("engine: shard %d: %w", i, err)
				}
			}
		}
		return m.Cursor, chains, nil
	case snapshot.Magic:
		base := filepath.Base(path)
		var chain *snapshot.Chain
		_, err := decodeFile(dir, base+".chain", func(r io.Reader) (err error) {
			chain, err = snapshot.ReadChain(r)
			return err
		})
		if errors.Is(err, os.ErrNotExist) {
			crc, size, serr := fileSum(path)
			chain, err = &snapshot.Chain{Base: snapshot.ChainEntry{Name: base, CRC: crc, Size: size}}, serr
		}
		if err != nil {
			return 0, nil, err
		}
		return 0, []*snapshot.Chain{chain}, nil
	}
	return 0, nil, fmt.Errorf("engine: %s is neither a save manifest nor a snapshot (magic %q)", path, magic)
}

// replay rebuilds one shard's state from its chain: every file is checked
// first, the longest intact prefix of the deltas is kept, then the base is
// decoded and the kept deltas applied in order. It returns the bytes
// decoded.
func replay(dir string, c *snapshot.Chain) (*snapshot.Snapshot, int64, error) {
	keep := len(c.Deltas)
	for i, e := range c.Deltas {
		if checkFile(dir, e) != nil {
			keep = i
			break
		}
	}
	// Anything intact after the first damaged delta means the chain is
	// broken in the middle, not merely truncated: replaying around it would
	// silently skip a window.
	for i := keep + 1; i < len(c.Deltas); i++ {
		if checkFile(dir, c.Deltas[i]) == nil {
			return nil, 0, fmt.Errorf("engine: delta %d is damaged but delta %d is intact: %w",
				keep, i, snapshot.ErrDeltaChainBroken)
		}
	}
	if err := checkFile(dir, c.Base); err != nil {
		return nil, 0, fmt.Errorf("engine: chain base: %w: %w", err, snapshot.ErrDeltaChainBroken)
	}
	var s *snapshot.Snapshot
	read, err := decodeFile(dir, c.Base.Name, func(r io.Reader) (err error) {
		s, err = snapshot.Read(r)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	for i, e := range c.Deltas[:keep] {
		var d *snapshot.Delta
		nd, err := decodeFile(dir, e.Name, func(r io.Reader) (err error) {
			d, err = snapshot.ReadDelta(r)
			return err
		})
		read += nd
		if err != nil {
			return nil, 0, err
		}
		if uint64(d.ToN) != e.ToN {
			return nil, 0, fmt.Errorf("%w: delta %d advances to %d points, chain records %d",
				snapshot.ErrDeltaMismatch, i, d.ToN, e.ToN)
		}
		if err := snapshot.ApplyDelta(s, d); err != nil {
			return nil, 0, fmt.Errorf("engine: delta %d: %w", i, err)
		}
	}
	return s, read, nil
}
