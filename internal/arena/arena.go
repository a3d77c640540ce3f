// Package arena provides the buffer-reuse primitive behind the
// zero-allocation decode paths: a single-owner bump allocator for decode
// scratch (values parsed out of log records live exactly one replay
// iteration, a served request's until its reply).
package arena

// chunkSize is the default arena chunk. Log-record values and request
// payloads are bounded well below it, so one chunk serves the common
// case and oversized allocations get a dedicated chunk.
const chunkSize = 64 << 10

// Arena is a chunked bump allocator owned by a single goroutine.
// Alloc carves slices out of the current chunk; Reset recycles every
// chunk without freeing, so a steady-state decode loop stops touching
// the heap entirely. Slices returned by Alloc are valid until the next
// Reset — callers own that lifetime contract.
type Arena struct {
	chunks [][]byte
	cur    int // index of the chunk being bumped
	off    int // bump offset inside chunks[cur]
}

// Alloc returns an n-byte slice backed by the arena. Contents are
// unspecified (callers overwrite); the slice aliases arena memory and
// dies at Reset.
func (a *Arena) Alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	for a.cur < len(a.chunks) {
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			b := c[a.off : a.off+n : a.off+n]
			a.off += n
			return b
		}
		a.cur++
		a.off = 0
	}
	size := chunkSize
	if n > size {
		size = n
	}
	c := make([]byte, size)
	a.chunks = append(a.chunks, c)
	a.cur = len(a.chunks) - 1
	a.off = n
	return c[0:n:n]
}

// Copy is Alloc plus a copy of src — the common "retain these decoded
// bytes for the rest of this iteration" step.
func (a *Arena) Copy(src []byte) []byte {
	b := a.Alloc(len(src))
	copy(b, src)
	return b
}

// Reset invalidates every slice handed out since the last Reset and
// makes the arena's memory reusable. Chunks are kept.
func (a *Arena) Reset() {
	a.cur = 0
	a.off = 0
}

// Cap reports the total bytes the arena currently holds across chunks
// (observability; grows monotonically until the arena is dropped).
func (a *Arena) Cap() int {
	n := 0
	for _, c := range a.chunks {
		n += len(c)
	}
	return n
}
