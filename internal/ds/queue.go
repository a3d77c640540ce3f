package ds

import (
	"encoding/binary"
	"fmt"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// Queue is the list-based FIFO of §8.1. The root pointer is the head
// (dequeue side); the tail pointer lives in the aux block's user area as
// its own 8-byte unit. Like the stack, it annuls buffered enqueues with
// dequeues once the persisted part of the queue is empty.
//
// Node layout matches the stack: {next u64, vlen u32, pad, value[cap]}.
type Queue struct {
	h    *core.Handle
	w    writerSession
	cap  int
	head uint64
	tail uint64
	size int
	// buffered enqueues not yet materialized (annihilation, FIFO order).
	buffered [][]byte
	params   []byte // op-log parameter buffer (OpLog copies)
}

func (q *Queue) nodeSize() int { return stackHdr + q.cap }

// tailAddr is the global address of the persisted tail-pointer unit.
func (q *Queue) tailAddr() uint64 { return q.h.AuxAddr() + backend.AuxUser }

// CreateQueue registers a new queue.
func CreateQueue(c *core.Conn, name string, opts Options) (*Queue, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeQueue, opts.Create)
	if err != nil {
		return nil, err
	}
	return newQueue(h, opts)
}

// OpenQueue attaches to an existing queue as the writer.
func OpenQueue(c *core.Conn, name string, opts Options) (*Queue, error) {
	opts.fill()
	h, err := c.Open(name, true)
	if err != nil {
		return nil, err
	}
	q, err := newQueue(h, opts)
	if err != nil {
		return nil, err
	}
	if _, err := ReplayPending(h, q); err != nil {
		return nil, err
	}
	return q, nil
}

func newQueue(h *core.Handle, opts Options) (*Queue, error) {
	q := &Queue{h: h, w: writerSession{h: h, lockPerOp: opts.LockPerOp}, cap: opts.ValueCap}
	h.SetOpGroupCommit(true) // §8.1: op logs buffer for annihilation
	if !opts.LockPerOp {
		if err := h.WriterLock(); err != nil {
			return nil, err
		}
	}
	head, err := h.ReadRoot()
	if err != nil {
		return nil, err
	}
	q.head = head
	tb, err := h.Read(q.tailAddr(), 8, true)
	if err != nil {
		return nil, err
	}
	q.tail = binary.LittleEndian.Uint64(tb)
	// Recount persisted length by walking the list (open is rare).
	for n := q.head; n != 0; {
		buf, err := h.Read(n, q.nodeSize(), false)
		if err != nil {
			return nil, err
		}
		n = binary.LittleEndian.Uint64(buf)
		q.size++
	}
	return q, nil
}

// Handle exposes the underlying framework handle.
func (q *Queue) Handle() *core.Handle { return q.h }

func (q *Queue) batching() bool {
	m := q.h.Conn().Frontend().Mode()
	return m.OpLog && m.Batch > 1
}

func (q *Queue) writeTail(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := q.h.Write(q.tailAddr(), b[:]); err != nil {
		return err
	}
	q.tail = v
	return nil
}

// Enqueue appends a value at the tail.
func (q *Queue) Enqueue(val []byte) error {
	if len(val) > q.cap {
		return ErrValueTooLarge
	}
	if err := q.w.begin(); err != nil {
		return err
	}
	q.params = appendKV(q.params[:0], 0, val)
	if _, err := q.h.OpLog(OpPush, q.params); err != nil {
		return err
	}
	if q.batching() {
		q.buffered = append(q.buffered, append([]byte(nil), val...))
		return q.w.end()
	}
	if err := q.materializeEnqueue(val); err != nil {
		return err
	}
	return q.w.end()
}

func (q *Queue) materializeEnqueue(val []byte) error {
	node, err := q.h.Alloc(q.nodeSize())
	if err != nil {
		return err
	}
	buf := make([]byte, q.nodeSize())
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(val)))
	copy(buf[stackHdr:], val)
	if err := q.h.Write(node, buf); err != nil {
		return err
	}
	if q.tail != 0 {
		// Re-link the old tail: read it (hot, cached per §8.1) and set its
		// next pointer, the one part of the unit that changes.
		old, err := q.h.Read(q.tail, q.nodeSize(), true)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(old, node)
		if err := q.h.WriteRanges(q.tail, old, core.Range{Off: 0, Len: 8}); err != nil {
			return err
		}
	}
	if q.head == 0 {
		if err := q.h.WriteRoot(node); err != nil {
			return err
		}
		q.head = node
	}
	if err := q.writeTail(node); err != nil {
		return err
	}
	q.size++
	return nil
}

// Dequeue removes and returns the head value; ok is false on empty.
func (q *Queue) Dequeue() ([]byte, bool, error) {
	if err := q.w.begin(); err != nil {
		return nil, false, err
	}
	if _, err := q.h.OpLog(OpPop, nil); err != nil {
		return nil, false, err
	}
	if q.head == 0 {
		// Persisted part empty: annul the oldest buffered enqueue.
		if len(q.buffered) > 0 {
			val := q.buffered[0]
			q.buffered = q.buffered[1:]
			q.h.Conn().Frontend().Stats().OpsAnnulled.Add(2)
			return val, true, q.w.end()
		}
		return nil, false, q.w.end()
	}
	buf, err := q.h.Read(q.head, q.nodeSize(), true)
	if err != nil {
		return nil, false, err
	}
	next := binary.LittleEndian.Uint64(buf)
	vlen := binary.LittleEndian.Uint32(buf[8:])
	if int(vlen) > q.cap {
		return nil, false, fmt.Errorf("ds: corrupt queue node (vlen=%d)", vlen)
	}
	val := append([]byte(nil), buf[stackHdr:stackHdr+int(vlen)]...)
	if err := q.h.WriteRoot(next); err != nil {
		return nil, false, err
	}
	old := q.head
	q.head = next
	if q.head == 0 {
		if err := q.writeTail(0); err != nil {
			return nil, false, err
		}
	}
	q.size--
	q.h.DelayedFree(old, q.nodeSize())
	return val, true, q.w.end()
}

// Len reports the writer-visible element count.
func (q *Queue) Len() int { return q.size + len(q.buffered) }

// Flush materializes buffered enqueues and flushes the batch.
func (q *Queue) Flush() error {
	for _, val := range q.buffered {
		if err := q.materializeEnqueue(val); err != nil {
			return err
		}
	}
	q.buffered = nil
	return q.h.Flush()
}

// Drain flushes and waits for replay.
func (q *Queue) Drain() error {
	if err := q.Flush(); err != nil {
		return err
	}
	return q.h.Drain()
}

// Close drains and releases the writer lock.
func (q *Queue) Close() error {
	if err := q.Drain(); err != nil {
		return err
	}
	return q.h.WriterUnlock()
}

var queueReplay = replayTable[*Queue]{push: (*Queue).materializeEnqueue, pop: (*Queue).replayPop}

// ReplayOp re-executes one pending op-log record.
func (q *Queue) ReplayOp(rec logrec.OpRecord) error { return replayOp(q, "queue", rec, &queueReplay) }

// replayPop unlinks the head node; false on an empty queue.
func (q *Queue) replayPop() (bool, error) {
	if q.head == 0 {
		return false, nil
	}
	buf, err := q.h.Read(q.head, q.nodeSize(), false)
	if err != nil {
		return false, err
	}
	next := binary.LittleEndian.Uint64(buf)
	if err := q.h.WriteRoot(next); err != nil {
		return false, err
	}
	q.head = next
	q.size--
	if q.head == 0 {
		if err := q.writeTail(0); err != nil {
			return false, err
		}
	}
	return true, nil
}
