package stream

const (
	labelChunkShift = 10
	labelChunk      = 1 << labelChunkShift
	labelChunkMask  = labelChunk - 1
)

// Labels is the chunked, structurally shared per-point assignment vector
// published in a View: labels[i] is the ordinal of the cluster owning point
// i, or -1 for noise. Snapshots share chunk storage with the live clusterer;
// the live side copies a chunk only the first time it writes into it after a
// publish (copy-on-write at chunk granularity), so publishing costs
// O(n/chunk) pointer copies and a commit that relabels b points costs
// O(b + touched chunks) — not the O(n) flat copy the pre-segmentation View
// paid. Reads are safe for unlimited concurrency; all mutation is package-
// internal and single-writer.
// A nil chunk is released storage: every point in its range was evicted and
// reads answer -1 without touching memory (label chunks and matrix chunks
// share the same granularity, so a released matrix chunk releases its label
// chunk too).
type Labels struct {
	chunks [][]int32
	// shared[c] marks chunk c as possibly referenced by a snapshot: the next
	// write to it must copy first.
	shared []bool
	n      int
}

// Len returns the number of labeled points.
func (l *Labels) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// At returns the label of point i (-1 = noise; released chunks hold only
// evicted points, which are noise by definition).
func (l *Labels) At(i int) int {
	ch := l.chunks[i>>labelChunkShift]
	if ch == nil {
		return -1
	}
	return int(ch[i&labelChunkMask])
}

// Flat materializes the labels into a fresh []int. Boundary interop (public
// Labels() accessors, the snapshot codec), not hot paths. Released chunks
// materialize as -1 runs.
func (l *Labels) Flat() []int {
	if l == nil {
		return nil
	}
	out := make([]int, 0, l.n)
	for c, ch := range l.chunks {
		if ch == nil {
			rows := min(labelChunk, l.n-c*labelChunk)
			for r := 0; r < rows; r++ {
				out = append(out, -1)
			}
			continue
		}
		for _, v := range ch {
			out = append(out, int(v))
		}
	}
	return out
}

// set writes label v at point i, copying the chunk first if a snapshot may
// share it. Writing into a released chunk is a bug (only evicted points live
// there) and panics via the nil slice.
func (l *Labels) set(i, v int) {
	c := i >> labelChunkShift
	if l.shared[c] {
		l.chunks[c] = append(make([]int32, 0, labelChunk), l.chunks[c]...)
		l.shared[c] = false
	}
	l.chunks[c][i&labelChunkMask] = int32(v)
}

// append adds one label, opening a fresh chunk when the tail is full or was
// released (a released chunk is full — of evicted points — and never
// written again). A shared tail chunk is copied first so divergent lineages
// (a clusterer restored from a view, and the view's original writer) can
// both append without touching common storage.
func (l *Labels) append(v int) {
	c := len(l.chunks) - 1
	if c < 0 || l.chunks[c] == nil || len(l.chunks[c]) == labelChunk {
		l.chunks = append(l.chunks, make([]int32, 0, labelChunk))
		l.shared = append(l.shared, false)
		c++
	} else if l.shared[c] {
		l.chunks[c] = append(make([]int32, 0, labelChunk), l.chunks[c]...)
		l.shared[c] = false
	}
	l.chunks[c] = append(l.chunks[c], int32(v))
	l.n++
}

// releaseChunk drops chunk c's storage. Callers guarantee every point in
// the chunk's range is evicted (label -1); snapshots sharing the chunk keep
// their own reference.
func (l *Labels) releaseChunk(c int) {
	l.chunks[c] = nil
	l.shared[c] = false
}

// chunkReleased reports whether chunk c's storage was dropped.
func (l *Labels) chunkReleased(c int) bool { return l.chunks[c] == nil }

// numChunks returns the label chunk count (same granularity as the matrix).
func (l *Labels) numChunks() int { return len(l.chunks) }

// snapshot returns a frozen copy sharing every chunk with the receiver and
// marks all chunks shared on both sides, arming the copy-on-write.
func (l *Labels) snapshot() *Labels {
	if l == nil {
		return nil
	}
	for c := range l.shared {
		l.shared[c] = true
	}
	s := &Labels{
		chunks: append([][]int32(nil), l.chunks...),
		shared: make([]bool, len(l.chunks)),
		n:      l.n,
	}
	for c := range s.shared {
		s.shared[c] = true
	}
	return s
}

// labelsFromFlat chunks a flat label slice (the snapshot-restore path).
func labelsFromFlat(flat []int) *Labels {
	l := &Labels{}
	for _, v := range flat {
		l.append(v)
	}
	return l
}
