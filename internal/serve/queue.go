package serve

import (
	"sync"
	"time"

	"asymnvm/internal/arena"
)

// Item is one admitted request waiting for the executor. The server recycles
// its items: one holds a request from the decode of its frame to the reply,
// and everything the request's bytes live in comes back with it — the
// Keys/Vals vectors inside Req, the arena its values were copied into, the
// buffer a get's value is staged in on its way into the response frame.
type Item struct {
	Req        Request
	Read       bool          // cheap read: gets the priority band
	ArrivedAt  time.Duration // virtual instant of admission
	DeadlineAt time.Duration // virtual deadline (0 = none)

	// Reply delivers the response toward the client. Nil in the
	// simulator, which does its own bookkeeping.
	Reply func(Response)

	vals arena.Arena // Req's value bytes
	val  []byte      // a get's value, staged for the reply
}

// itemRing is one band of the run queue: a fixed ring, so neither end's push
// nor the pop moves or allocates anything.
type itemRing struct {
	slots   []*Item
	head, n int
}

func (r *itemRing) pushBack(it *Item) {
	r.slots[(r.head+r.n)%len(r.slots)] = it
	r.n++
}

func (r *itemRing) pushFront(it *Item) {
	r.head = (r.head + len(r.slots) - 1) % len(r.slots)
	r.slots[r.head] = it
	r.n++
}

// popFront takes the head, leaving no reference to it in the slot.
func (r *itemRing) popFront() *Item {
	it := r.slots[r.head]
	r.slots[r.head] = nil
	r.head = (r.head + 1) % len(r.slots)
	r.n--
	return it
}

// RunQueue is the bounded two-band run queue between admission and the
// executor. Reads live in the priority band (they are cheap and finish
// fast, so serving them first raises goodput under pressure). When
// occupancy climbs past the LIFO watermark the queue flips to
// last-in-first-out within each band: under overload the freshest
// requests are the ones whose deadlines are still worth serving, while
// FIFO would burn the pipeline draining requests that already expired —
// the adaptive-LIFO trick. Safe for concurrent use.
type RunQueue struct {
	mu            sync.Mutex
	reads, writes itemRing // each can hold the whole queue
	cap           int
	lifoAt        int // occupancy threshold where LIFO kicks in
}

// NewRunQueue builds a queue holding at most capacity items, flipping
// to LIFO when occupancy exceeds lifoFrac of capacity.
func NewRunQueue(capacity int, lifoFrac float64) *RunQueue {
	if capacity <= 0 {
		capacity = 256
	}
	if lifoFrac <= 0 || lifoFrac > 1 {
		lifoFrac = 0.5
	}
	return &RunQueue{
		reads:  itemRing{slots: make([]*Item, capacity)},
		writes: itemRing{slots: make([]*Item, capacity)},
		cap:    capacity,
		lifoAt: int(float64(capacity) * lifoFrac),
	}
}

// Push enqueues an item; false means the queue is full (caller sheds).
func (q *RunQueue) Push(it *Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.reads.n + q.writes.n
	if n >= q.cap {
		return false
	}
	band := &q.writes
	if it.Read {
		band = &q.reads
	}
	if n >= q.lifoAt {
		band.pushFront(it) // LIFO under overload: newest first
	} else {
		band.pushBack(it)
	}
	return true
}

// Pop dequeues the next item (reads first), or nil when empty.
func (q *RunQueue) Pop() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reads.n > 0 {
		return q.reads.popFront()
	}
	if q.writes.n > 0 {
		return q.writes.popFront()
	}
	return nil
}

// Len reports current occupancy.
func (q *RunQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.reads.n + q.writes.n
}

// Cap reports the queue bound.
func (q *RunQueue) Cap() int { return q.cap }
