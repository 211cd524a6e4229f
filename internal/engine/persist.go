// This file is the persistence plumbing shared by saves and restores: one
// engine's snapshot encode and restore, the one atomic file write every
// save goes through, and the one whole-file check every restore goes
// through. chain.go holds the save routine, sharded_persist.go the restore
// routine.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"alid/internal/index"
	"alid/internal/obs"
	"alid/internal/snapshot"
	"alid/internal/stream"
)

// countingWriter / countingReader meter snapshot byte volume for the
// alid_snapshot_bytes_total counters without buffering anything.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// crcWriter tees written bytes into a CRC-32 and a byte count, so a file's
// manifest entry is computed during the single write pass.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += uint64(n)
	return n, err
}

// writeSnapshotView persists one explicit published view. Saves go through
// this: the saver reads every shard's view ONCE, derives the manifest's
// id-mint cursor from those exact views, and then writes exactly them — a
// second View() load here could have advanced past the cursor.
func (e *Engine) writeSnapshotView(w io.Writer, v stream.View) error {
	if v.Mat == nil {
		return fmt.Errorf("engine: nothing committed to snapshot")
	}
	start := obs.Now()
	cw := &countingWriter{w: w}
	err := snapshot.Write(cw, &snapshot.Snapshot{
		Core:       e.cfg.Core,
		BatchSize:  e.cfg.BatchSize,
		Retention:  e.cfg.Retention,
		Mat:        v.Mat,
		Index:      v.Index,
		Clusters:   v.Clusters,
		Labels:     v.Labels.Flat(),
		Commits:    v.Commits,
		Generation: v.Generation,
		RetiredIDs: v.RetiredIDs,
	})
	e.met.saveBytes.Add(cw.n)
	e.met.snapSave.ObserveSince(start)
	if err == nil && e.logger != nil {
		e.logger.LogAttrs(context.Background(), slog.LevelInfo, "snapshot written",
			slog.Int64("bytes", cw.n),
			slog.Int("n", v.Mat.N),
			slog.Int("clusters", len(v.Clusters)),
			slog.Int("commits", v.Commits),
		)
	}
	return err
}

// restoreConfig is the engine config of shard i of an n-shard engine
// restored from s: configuration and retention policy come from the
// snapshot, the runtime knobs from o. A non-nil o.Retention is the TOTAL
// policy and replaces the stored one with this shard's share.
func restoreConfig(s *snapshot.Snapshot, o ShardedLoadOptions, reg *obs.Registry, i, n int) Config {
	core := s.Core
	core.Pool = o.Pool
	cfg := shardConfig(Config{
		Core: core, BatchSize: s.BatchSize, QueueSize: o.QueueSize, Logger: o.Logger,
		CompactEvictedShare: o.CompactEvictedShare,
	}, reg, i, n)
	cfg.Retention = s.Retention
	if o.Retention != nil {
		cfg.Retention = shareOf(*o.Retention, n)
	}
	return cfg
}

// restoreShard builds shard i of an n-shard engine from a decoded snapshot
// under restoreConfig.
func restoreShard(s *snapshot.Snapshot, o ShardedLoadOptions, reg *obs.Registry, i, n int) (*Engine, error) {
	if o.Backend != "" {
		if got, want := index.Normalize(s.Core.Backend), index.Normalize(o.Backend); got != want {
			return nil, fmt.Errorf("engine: snapshot index backend is %q, engine configured for %q: %w", got, want, snapshot.ErrBackendMismatch)
		}
	}
	return RestoreGeneration(restoreConfig(s, o, reg, i, n), s.Mat, s.Index, s.Clusters, s.Labels, s.Commits, s.Generation, s.RetiredIDs)
}

// renameHook, when set (by tests), runs just before writeFile renames a
// finished file into place; an error fails the write at that point.
var renameHook func(name string) error

// writeFile writes one file of a save atomically: into a temp file in dir,
// fsynced, then renamed to name. It returns the file's entry: its name,
// whole-file CRC and size.
func writeFile(dir, name string, write func(io.Writer) error) (snapshot.ChainEntry, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return snapshot.ChainEntry{}, fmt.Errorf("engine: %w", err)
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	cw := &crcWriter{w: tmp, crc: crc32.NewIEEE()}
	err = write(cw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && renameHook != nil {
		err = renameHook(name)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return snapshot.ChainEntry{}, fmt.Errorf("engine: write %s: %w", name, err)
	}
	return snapshot.ChainEntry{Name: name, CRC: cw.crc.Sum32(), Size: cw.n}, nil
}

// syncDir fsyncs a directory, making the renames done in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("engine: sync %s: %w", dir, err)
	}
	return nil
}

// fileSum streams a file once and returns its CRC-32 and size. A missing
// file fails with snapshot.ErrShardFileMissing.
func fileSum(path string) (uint32, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, fmt.Errorf("engine: %s: %w", path, snapshot.ErrShardFileMissing)
		}
		return 0, 0, fmt.Errorf("engine: %w", err)
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	size, err := io.Copy(crc, f)
	if err != nil {
		return 0, 0, fmt.Errorf("engine: %w", err)
	}
	return crc.Sum32(), uint64(size), nil
}

// checkFile compares a file with the size and CRC its manifest recorded,
// before anything decodes it: a truncated, damaged or foreign file fails
// with snapshot.ErrShardFileCorrupt, a missing one with ErrShardFileMissing.
func checkFile(dir string, e snapshot.ChainEntry) error {
	path := filepath.Join(dir, e.Name)
	crc, size, err := fileSum(path)
	if err != nil {
		return err
	}
	if size != e.Size || crc != e.CRC {
		return fmt.Errorf("engine: %s: %d bytes crc %08x, manifest records %d bytes crc %08x: %w",
			path, size, crc, e.Size, e.CRC, snapshot.ErrShardFileCorrupt)
	}
	return nil
}

// decodeFile opens one file of a save and runs dec over it, returning the
// bytes dec read (for the alid_snapshot_bytes_total{op="load"} counter).
func decodeFile(dir, name string, dec func(io.Reader) error) (int64, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	defer f.Close()
	cr := &countingReader{r: f}
	err = dec(cr)
	return cr.n, err
}
