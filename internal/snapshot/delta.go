// This file is the delta-snapshot codec: the incremental companion to the
// full snapshot format. A delta encodes one save window's changes — the rows
// appended since the previous save, the liveness diff, the label diff, and
// the cluster patches — so periodic persistence costs O(batch), not O(n).
//
//	magic "ALIDDELT" | u32 version | payload | u32 CRC-32 (IEEE) of payload
//
//	payload = i64 generation | u64 fromN | u64 toN | u64 d
//	        | f64s rows                ((toN−fromN)·d flat, appended ids)
//	        | ints newLabels           (len toN−fromN, labels of new ids)
//	        | ints evicts              (ids newly dead, old AND new)
//	        | u64 labelChangeCount × { i64 id | i64 label }
//	        | u64 clusterCount         (total clusters after this delta)
//	        | u64 patchCount × { u64 index | cluster }  (cluster = Write's order)
//	        | u64 commits              (stream commit counter after this delta)
//
// Replay (ApplyDelta) appends the rows to the matrix and index, then applies
// the evicts, then patches labels and clusters. That order is NOT the online
// history — the live engine interleaved commits and evictions — but it
// converges to the same bytes: chunk encodings are deterministic functions
// of (rows, hash parameters, final liveness), and chunk release is a
// deterministic function of the final liveness because eviction re-checks
// affected chunks at call time. The one wrinkle is an appended id whose
// chunk the live engine already released: its row bytes are gone, so the
// writer emits ZERO rows for appended ids that are dead with a released
// chunk — replay appends the zeros, the evict pass kills them, the chunk
// re-releases, and both sides encode a zero-length chunk. AppendRows
// recomputes norms from the rows exactly like the original commit did, so
// stored norms stay bit-identical too.
//
// Generation compactions renumber ids, which no diff can express: a delta
// carries the generation it extends, ApplyDelta refuses mismatches
// (ErrDeltaMismatch), and the save layer starts a fresh chain — full
// snapshot first — after every compaction.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"alid/internal/core"
)

// DeltaMagic identifies a delta-snapshot stream.
const DeltaMagic = "ALIDDELT"

// DeltaVersion is the current delta format version.
const DeltaVersion = 1

// Sentinel errors for delta replay (wrapped with context; match with
// errors.Is).
var (
	// ErrDeltaMismatch: the delta does not extend the state it was applied
	// to — wrong generation, wrong base point count, or wrong dimension.
	// Deltas form a chain; out-of-order or cross-generation application is
	// refused rather than guessed at.
	ErrDeltaMismatch = errors.New("snapshot: delta does not extend this state")
	// ErrDeltaChainBroken: a chain manifest names a delta that is missing or
	// corrupt BEFORE a later valid one. A damaged tail can be dropped (the
	// prefix is still a consistent state); a damaged middle cannot — replay
	// would silently skip a window — so the restore refuses all-or-nothing.
	ErrDeltaChainBroken = errors.New("snapshot: delta chain broken")
)

// LabelChange is one point whose assignment changed within a delta window.
type LabelChange struct {
	ID    int
	Label int
}

// ClusterPatch replaces one maintained cluster wholesale. Clusters are
// small (tens of members), so patches carry full values instead of
// member-level diffs — simpler, and still O(changed), not O(n).
type ClusterPatch struct {
	Index   int
	Cluster *core.Cluster
}

// Delta is one save window's diff against the previous save's state.
type Delta struct {
	// Generation is the id generation BOTH endpoints of the window belong
	// to; compactions end a chain, so a delta never crosses one.
	Generation int
	// FromN and ToN are the committed point counts before and after the
	// window; the delta appends ids [FromN, ToN).
	FromN, ToN int
	// D is the point dimensionality (signature length for set backends).
	D int
	// Rows is the appended ids' data, (ToN−FromN)·D flat; all-zero rows for
	// appended ids whose chunk the writer had already released.
	Rows []float64
	// NewLabels are the appended ids' labels in the post-window state.
	NewLabels []int
	// Evicts are the ids newly dead in the post-window state (both old ids
	// and ids appended within the window).
	Evicts []int
	// LabelChanges are the pre-existing ids whose label changed.
	LabelChanges []LabelChange
	// ClusterCount is the total maintained-cluster count after the window
	// (the cluster list can shrink when empty husks are compacted away).
	ClusterCount int
	// Patches are the clusters that differ from the previous save's state,
	// including every index ≥ the previous count.
	Patches []ClusterPatch
	// Commits is the stream's batch-commit counter after the window.
	Commits int
}

func validateDelta(d *Delta) error {
	if d.Generation < 0 {
		return fmt.Errorf("snapshot: delta has negative generation %d", d.Generation)
	}
	if d.FromN < 0 || d.ToN < d.FromN {
		return fmt.Errorf("snapshot: delta window [%d, %d) is invalid", d.FromN, d.ToN)
	}
	if d.D <= 0 {
		return fmt.Errorf("snapshot: delta dimension %d, want >= 1", d.D)
	}
	if want := (d.ToN - d.FromN) * d.D; len(d.Rows) != want {
		return fmt.Errorf("snapshot: delta has %d row values for %d appended points of dim %d", len(d.Rows), d.ToN-d.FromN, d.D)
	}
	if want := d.ToN - d.FromN; len(d.NewLabels) != want {
		return fmt.Errorf("snapshot: delta has %d labels for %d appended points", len(d.NewLabels), want)
	}
	if d.ClusterCount < 0 {
		return fmt.Errorf("snapshot: delta has negative cluster count %d", d.ClusterCount)
	}
	for _, p := range d.Patches {
		if p.Index < 0 || p.Index >= d.ClusterCount {
			return fmt.Errorf("snapshot: delta patches cluster %d of %d", p.Index, d.ClusterCount)
		}
		if p.Cluster == nil {
			return fmt.Errorf("snapshot: delta patch %d has nil cluster", p.Index)
		}
		if len(p.Cluster.Members) != len(p.Cluster.Weights) {
			return fmt.Errorf("snapshot: delta patch %d has %d members but %d weights", p.Index, len(p.Cluster.Members), len(p.Cluster.Weights))
		}
	}
	for _, id := range d.Evicts {
		if id < 0 || id >= d.ToN {
			return fmt.Errorf("snapshot: delta evicts id %d of %d", id, d.ToN)
		}
	}
	for _, lc := range d.LabelChanges {
		if lc.ID < 0 || lc.ID >= d.FromN {
			return fmt.Errorf("snapshot: delta changes label of id %d, want pre-existing [0, %d)", lc.ID, d.FromN)
		}
	}
	return nil
}

// WriteDelta encodes d. The stream is buffered internally; the caller owns
// any underlying file and its sync/close.
func WriteDelta(out io.Writer, d *Delta) error {
	if err := validateDelta(d); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	w := &writer{w: bw, crc: crc32.NewIEEE()}
	if _, err := bw.WriteString(DeltaMagic); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.u32(DeltaVersion)
	w.i64(int64(d.Generation))
	w.u64(uint64(d.FromN))
	w.u64(uint64(d.ToN))
	w.u64(uint64(d.D))
	w.f64s(d.Rows)
	w.ints(d.NewLabels)
	w.ints(d.Evicts)
	w.u64(uint64(len(d.LabelChanges)))
	for _, lc := range d.LabelChanges {
		w.i64(int64(lc.ID))
		w.i64(int64(lc.Label))
	}
	w.u64(uint64(d.ClusterCount))
	w.u64(uint64(len(d.Patches)))
	for _, p := range d.Patches {
		w.u64(uint64(p.Index))
		cl := p.Cluster
		w.ints(cl.Members)
		w.f64s(cl.Weights)
		w.f64(cl.Density)
		w.i64(int64(cl.Seed))
		w.i64(int64(cl.OuterIterations))
		w.i64(int64(cl.LIDIterations))
		w.i64(int64(cl.PeakEntries))
	}
	w.u64(uint64(d.Commits))
	return finish(bw, w)
}

// ReadDelta decodes and validates a delta, verifying magic, version and CRC.
func ReadDelta(in io.Reader) (*Delta, error) {
	br := bufio.NewReaderSize(in, 1<<20)
	magic := make([]byte, len(DeltaMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if string(magic) != DeltaMagic {
		return nil, fmt.Errorf("snapshot: bad delta magic %q", magic)
	}
	r := &reader{r: br, crc: crc32.NewIEEE()}
	version := r.u32()
	if r.err == nil && version != DeltaVersion {
		return nil, fmt.Errorf("snapshot: unsupported delta version %d (have %d)", version, DeltaVersion)
	}
	d := &Delta{
		Generation: int(r.i64()),
		FromN:      int(r.u64()),
		ToN:        int(r.u64()),
		D:          int(r.u64()),
	}
	d.Rows = r.f64s("delta rows")
	d.NewLabels = r.ints("delta labels")
	d.Evicts = r.ints("delta evicts")
	nChanges := r.length("delta label change list")
	for i := 0; r.err == nil && i < nChanges; i++ {
		d.LabelChanges = append(d.LabelChanges, LabelChange{ID: int(r.i64()), Label: int(r.i64())})
	}
	d.ClusterCount = int(r.u64())
	nPatches := r.length("delta patch list")
	for i := 0; r.err == nil && i < nPatches; i++ {
		p := ClusterPatch{Index: int(r.u64())}
		cl := &core.Cluster{
			Members: r.ints("members"),
			Weights: r.f64s("weights"),
		}
		cl.Density = r.f64()
		cl.Seed = int(r.i64())
		cl.OuterIterations = int(r.i64())
		cl.LIDIterations = int(r.i64())
		cl.PeakEntries = int(r.i64())
		p.Cluster = cl
		d.Patches = append(d.Patches, p)
	}
	d.Commits = int(r.u64())
	if r.err != nil {
		return nil, fmt.Errorf("snapshot: %w", r.err)
	}
	sum := r.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("snapshot: delta missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return nil, fmt.Errorf("snapshot: delta checksum mismatch: stored %08x, computed %08x", got, sum)
	}
	if err := validateDelta(d); err != nil {
		return nil, err
	}
	return d, nil
}

// ApplyDelta replays d onto s in place, advancing s to the post-window
// state. s must be exactly the state d was diffed against (same generation,
// point count and dimension) — anything else is ErrDeltaMismatch. On error
// s may be partially advanced and must be discarded; the chain loader
// re-reads from the base when it retries.
func ApplyDelta(s *Snapshot, d *Delta) error {
	if err := validate(s); err != nil {
		return err
	}
	if s.Generation != d.Generation {
		return fmt.Errorf("%w: delta is generation %d, state is %d", ErrDeltaMismatch, d.Generation, s.Generation)
	}
	if s.Mat.N != d.FromN {
		return fmt.Errorf("%w: delta extends %d points, state has %d", ErrDeltaMismatch, d.FromN, s.Mat.N)
	}
	if s.Mat.D != d.D {
		return fmt.Errorf("%w: delta is dimension %d, state is %d", ErrDeltaMismatch, d.D, s.Mat.D)
	}
	// Every slot the cluster list grows by must be patched, so the count is
	// bounded by the patches actually present — checked before growing.
	if d.ClusterCount > len(s.Clusters)+len(d.Patches) {
		return fmt.Errorf("%w: delta grows %d clusters to %d with %d patches", ErrDeltaMismatch, len(s.Clusters), d.ClusterCount, len(d.Patches))
	}
	if add := d.ToN - d.FromN; add > 0 {
		rows := make([][]float64, add)
		for i := range rows {
			rows[i] = d.Rows[i*d.D : (i+1)*d.D]
		}
		if _, err := s.Mat.AppendRows(rows); err != nil {
			return fmt.Errorf("snapshot: delta append: %w", err)
		}
		if _, err := s.Index.Append(rows); err != nil {
			return fmt.Errorf("snapshot: delta append: %w", err)
		}
		s.Labels = append(s.Labels, d.NewLabels...)
	}
	if len(d.Evicts) > 0 {
		s.Mat.Evict(d.Evicts)
		s.Index.Evict(d.Evicts)
		for _, id := range d.Evicts {
			s.Labels[id] = -1
		}
	}
	for _, lc := range d.LabelChanges {
		s.Labels[lc.ID] = lc.Label
	}
	if d.ClusterCount < len(s.Clusters) {
		s.Clusters = s.Clusters[:d.ClusterCount]
	}
	for len(s.Clusters) < d.ClusterCount {
		s.Clusters = append(s.Clusters, nil)
	}
	for _, p := range d.Patches {
		s.Clusters[p.Index] = p.Cluster
	}
	for i, cl := range s.Clusters {
		if cl == nil {
			return fmt.Errorf("%w: cluster %d was grown but never patched", ErrDeltaMismatch, i)
		}
	}
	s.Commits = d.Commits
	return nil
}
