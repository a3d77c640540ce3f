package ring

import (
	"sync/atomic"
)

// mpscSlot pairs an element with its sequence word. seq == ticket means
// the slot is free for the producer holding that ticket; seq == ticket+1
// means the element is published and waiting for the consumer.
type mpscSlot[T any] struct {
	seq atomic.Uint64
	v   T
}

// MPSC is a bounded multi-producer single-consumer lock-free ring
// (Vyukov's bounded queue with the consumer side simplified to one
// goroutine). Any number of goroutines may Push; exactly one may Pop.
type MPSC[T any] struct {
	mask   uint64
	slots  []mpscSlot[T]
	_      pad
	enq    atomic.Uint64 // producer ticket counter
	_      pad
	deq    atomic.Uint64 // consumer cursor
	_      pad
	closed atomic.Bool
}

// NewMPSC returns a ring holding at least capacity elements (rounded up
// to a power of two, minimum 2).
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := ceilPow2(capacity)
	q := &MPSC[T]{mask: uint64(n - 1), slots: make([]mpscSlot[T], n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Push appends v, returning false when the ring is full or closed. It
// never blocks: a producer that loses a CAS race simply retries against
// the advanced ticket, and a full ring is detected without waiting on
// other producers' in-flight writes.
func (q *MPSC[T]) Push(v T) bool {
	if q.closed.Load() {
		return false
	}
	for {
		pos := q.enq.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if q.enq.CompareAndSwap(pos, pos+1) {
				slot.v = v
				slot.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The slot still holds an element from one lap ago: full.
			return false
		default:
			// Another producer advanced enq; reload.
		}
	}
}

// Pop removes the oldest published element. Elements published by
// different producers are consumed in publication (ticket) order, so
// each producer's own pushes stay FIFO.
func (q *MPSC[T]) Pop() (v T, ok bool) {
	pos := q.deq.Load()
	slot := &q.slots[pos&q.mask]
	if slot.seq.Load() != pos+1 {
		return v, false // empty, or the ticket holder has not published yet
	}
	v = slot.v
	var zero T
	slot.v = zero
	slot.seq.Store(pos + q.mask + 1) // free the slot for the next lap
	q.deq.Store(pos + 1)
	return v, true
}

// Len reports the number of claimed tickets not yet consumed (an upper
// bound on poppable elements, since a ticket may not be published yet).
func (q *MPSC[T]) Len() int { return int(q.enq.Load() - q.deq.Load()) }

// Cap reports the fixed capacity.
func (q *MPSC[T]) Cap() int { return len(q.slots) }

// Close marks the ring closed: later Pushes fail, Pop drains what was
// already published. As with SPSC, a Push racing Close may land one
// last element; drain loops check Closed() before their final Pop.
func (q *MPSC[T]) Close() { q.closed.Store(true) }

// Closed reports whether Close was called.
func (q *MPSC[T]) Closed() bool { return q.closed.Load() }
