// Package ring provides the bounded lock-free queues the hot paths use
// instead of channel/mutex handoffs, plus the park/unpark doorbell that
// replaces `chan struct{}` wakeups.
//
// Three queue shapes cover every hot edge in the system:
//
//   - SPSC: one producer goroutine, one consumer goroutine. A Lamport
//     ring over a power-of-two buffer with cache-line-padded, locally
//     cached cursors; push and pop are a single atomic store in the
//     common case, touching the opposite side's cache line only at the
//     full/empty boundaries.
//   - MPSC: many producers, one consumer. A Vyukov-style bounded queue
//     with per-slot sequence numbers; producers CAS a ticket, never spin
//     on each other's writes.
//   - Buf: a single-owner circular buffer (no atomics) for queues that
//     live entirely inside one goroutine — the rdma completion queue,
//     the mirror forward window. It grows when full, so steady state is
//     allocation-free while correctness never depends on a size guess.
//
// All three preserve strict FIFO order per producer, which is what the
// deterministic chaos replay needs: per-actor ordering on the virtual
// clock is exactly per-producer FIFO.
package ring

import (
	"sync/atomic"
)

// pad keeps hot cursors on separate cache lines so the producer's tail
// store never invalidates the consumer's head line.
type pad [56]byte

// SPSC is a bounded single-producer single-consumer lock-free ring.
// Exactly one goroutine may call Push/Close and exactly one may call
// Pop; both sides may call Len and Closed.
type SPSC[T any] struct {
	mask   uint64
	buf    []T
	_      pad
	head   atomic.Uint64 // next slot to pop (consumer-owned)
	_      pad
	tail   atomic.Uint64 // next slot to push (producer-owned)
	_      pad
	closed atomic.Bool
	// Cached cursors: each side works against a private mirror of its
	// own cursor and a stale view of the other side's, refreshing the
	// stale view only when the ring looks full (producer) or empty
	// (consumer). The common case is then one atomic store per op — no
	// load of the opposite cache line, so the cursors ping-pong between
	// cores only at the full/empty boundaries instead of every op.
	_     pad
	ptail uint64 // producer's mirror of tail
	phead uint64 // producer's stale view of head
	_     pad
	chead uint64 // consumer's mirror of head
	ctail uint64 // consumer's stale view of tail
}

// NewSPSC returns a ring holding at least capacity elements (rounded up
// to a power of two, minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := ceilPow2(capacity)
	return &SPSC[T]{mask: uint64(n - 1), buf: make([]T, n)}
}

// Push appends v. It returns false when the ring is full or closed —
// never blocking, never allocating.
func (r *SPSC[T]) Push(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.ptail
	if t-r.phead > r.mask {
		r.phead = r.head.Load()
		if t-r.phead > r.mask {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.ptail = t + 1
	r.tail.Store(t + 1) // release: the slot write above is visible first
	return true
}

// Pop removes the oldest element. ok is false when the ring is empty;
// after Close, Pop keeps draining whatever was pushed before the close.
func (r *SPSC[T]) Pop() (v T, ok bool) {
	h := r.chead
	if h == r.ctail {
		r.ctail = r.tail.Load()
		if h == r.ctail {
			return v, false
		}
	}
	slot := &r.buf[h&r.mask]
	v = *slot
	var zero T
	*slot = zero // release references for GC
	r.chead = h + 1
	r.head.Store(h + 1)
	return v, true
}

// Len reports the number of buffered elements (racy but monotone-safe:
// it never exceeds what a subsequent Pop can observe from either side).
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Cap reports the fixed capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Close marks the ring closed: every later Push fails, Pop drains the
// remainder. Unlike closing a channel, Close never races a concurrent
// Push — a post-close Push simply returns false.
func (r *SPSC[T]) Close() { r.closed.Store(true) }

// Closed reports whether Close was called. A Push racing Close may
// still land one element after the flag flips; a draining consumer
// therefore checks Closed() first and pops once more before exiting,
// which bounds the race to a single extra sweep.
func (r *SPSC[T]) Closed() bool { return r.closed.Load() }

func ceilPow2(n int) int {
	if n < 2 {
		n = 2
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
