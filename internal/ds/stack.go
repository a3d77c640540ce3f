package ds

import (
	"encoding/binary"
	"errors"
	"fmt"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// Stack is the list-based LIFO of §8.1. The root pointer is the top node.
//
// Its structure-specific optimization is operation annihilation: with
// batching enabled, pushes whose memory logs have not been flushed yet
// stay in a front-end buffer; a pop first consumes that buffer, so a
// push/pop pair costs two operation-log appends and zero memory logs —
// "the effective pushes will be annulled by pops".
//
// Stack node layout: {next u64, vlen u32, pad u32, value[cap]}.
const stackHdr = 16

// Stack is a persistent LIFO. One writer per instance (SWMR); the
// annihilation buffer lives in the writer.
type Stack struct {
	h    *core.Handle
	w    writerSession
	cap  int
	top  uint64 // writer's view of the root (top) pointer
	size int    // persisted nodes (writer-side count, not persisted)
	// buffered holds pushes whose memory effects are deferred for
	// annihilation. Only non-empty in batch mode.
	buffered [][]byte
	params   []byte // op-log parameter buffer (OpLog copies)
}

func (s *Stack) nodeSize() int { return stackHdr + s.cap }

// CreateStack registers a new stack.
func CreateStack(c *core.Conn, name string, opts Options) (*Stack, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeStack, opts.Create)
	if err != nil {
		return nil, err
	}
	return newStack(h, opts)
}

// OpenStack attaches to an existing stack as the writer, recovering any
// acknowledged-but-uncovered operations.
func OpenStack(c *core.Conn, name string, opts Options) (*Stack, error) {
	opts.fill()
	h, err := c.Open(name, true)
	if err != nil {
		return nil, err
	}
	s, err := newStack(h, opts)
	if err != nil {
		return nil, err
	}
	if _, err := ReplayPending(h, s); err != nil {
		return nil, err
	}
	return s, nil
}

func newStack(h *core.Handle, opts Options) (*Stack, error) {
	s := &Stack{h: h, w: writerSession{h: h, lockPerOp: opts.LockPerOp}, cap: opts.ValueCap}
	h.SetOpGroupCommit(true) // §8.1: op logs buffer for annihilation
	if !opts.LockPerOp {
		if err := h.WriterLock(); err != nil {
			return nil, err
		}
	}
	top, err := h.ReadRoot()
	if err != nil {
		return nil, err
	}
	s.top = top
	// Recount persisted elements (open is rare; pushes/pops keep the
	// count incrementally afterwards).
	for n := top; n != 0; {
		buf, err := h.Read(n, s.nodeSize(), false)
		if err != nil {
			return nil, err
		}
		next, _, err := s.decodeNode(buf)
		if err != nil {
			return nil, err
		}
		n = next
		s.size++
	}
	return s, nil
}

// Handle exposes the underlying framework handle.
func (s *Stack) Handle() *core.Handle { return s.h }

func (s *Stack) encodeNode(next uint64, val []byte) []byte {
	buf := make([]byte, s.nodeSize())
	binary.LittleEndian.PutUint64(buf, next)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(val)))
	copy(buf[stackHdr:], val)
	return buf
}

func (s *Stack) decodeNode(buf []byte) (next uint64, val []byte, err error) {
	if len(buf) < stackHdr {
		return 0, nil, errors.New("ds: short stack node")
	}
	next = binary.LittleEndian.Uint64(buf)
	vlen := binary.LittleEndian.Uint32(buf[8:])
	if int(vlen) > s.cap {
		return 0, nil, fmt.Errorf("ds: corrupt stack node (vlen=%d)", vlen)
	}
	return next, append([]byte(nil), buf[stackHdr:stackHdr+int(vlen)]...), nil
}

// batching reports whether annihilation buffering is active.
func (s *Stack) batching() bool {
	m := s.h.Conn().Frontend().Mode()
	return m.OpLog && m.Batch > 1
}

// Push pushes a value.
func (s *Stack) Push(val []byte) error {
	if len(val) > s.cap {
		return ErrValueTooLarge
	}
	if err := s.w.begin(); err != nil {
		return err
	}
	s.params = appendKV(s.params[:0], 0, val)
	if _, err := s.h.OpLog(OpPush, s.params); err != nil {
		return err
	}
	if s.batching() {
		// Defer the memory effects; a pop may annul this push before the
		// batch flushes.
		s.buffered = append(s.buffered, append([]byte(nil), val...))
		return s.w.end()
	}
	if err := s.materializePush(val); err != nil {
		return err
	}
	return s.w.end()
}

// materializePush allocates and links one node.
func (s *Stack) materializePush(val []byte) error {
	node, err := s.h.Alloc(s.nodeSize())
	if err != nil {
		return err
	}
	if err := s.h.Write(node, s.encodeNode(s.top, val)); err != nil {
		return err
	}
	if err := s.h.WriteRoot(node); err != nil {
		return err
	}
	s.top = node
	s.size++
	return nil
}

// Pop removes and returns the top value; ok is false on empty.
func (s *Stack) Pop() ([]byte, bool, error) {
	if err := s.w.begin(); err != nil {
		return nil, false, err
	}
	if _, err := s.h.OpLog(OpPop, nil); err != nil {
		return nil, false, err
	}
	// Annihilation: the newest un-materialized push is the stack top.
	if n := len(s.buffered); n > 0 {
		val := s.buffered[n-1]
		s.buffered = s.buffered[:n-1]
		s.h.Conn().Frontend().Stats().OpsAnnulled.Add(2)
		return val, true, s.w.end()
	}
	if s.top == 0 {
		return nil, false, s.w.end()
	}
	buf, err := s.h.Read(s.top, s.nodeSize(), true)
	if err != nil {
		return nil, false, err
	}
	next, val, err := s.decodeNode(buf)
	if err != nil {
		return nil, false, err
	}
	if err := s.h.WriteRoot(next); err != nil {
		return nil, false, err
	}
	old := s.top
	s.top = next
	s.size--
	s.h.DelayedFree(old, s.nodeSize())
	return val, true, s.w.end()
}

// Len reports the writer-visible element count (persisted + buffered).
func (s *Stack) Len() int { return s.size + len(s.buffered) }

// Flush materializes buffered pushes and flushes the batch.
func (s *Stack) Flush() error {
	for _, val := range s.buffered {
		if err := s.materializePush(val); err != nil {
			return err
		}
	}
	s.buffered = nil
	return s.h.Flush()
}

// Drain flushes and waits for the replayer (a persistent fence).
func (s *Stack) Drain() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.h.Drain()
}

// Close flushes, drains, and releases the coarse writer lock.
func (s *Stack) Close() error {
	if err := s.Drain(); err != nil {
		return err
	}
	return s.h.WriterUnlock()
}

var stackReplay = replayTable[*Stack]{push: (*Stack).materializePush, pop: (*Stack).replayPop}

// ReplayOp re-executes one op-log record (recovery path). The stack's
// state already reflects every *applied* transaction; pending records are
// re-run in order.
func (s *Stack) ReplayOp(rec logrec.OpRecord) error { return replayOp(s, "stack", rec, &stackReplay) }

// replayPop unlinks the top node; false on an empty stack.
func (s *Stack) replayPop() (bool, error) {
	if s.top == 0 {
		return false, nil
	}
	buf, err := s.h.Read(s.top, s.nodeSize(), false)
	if err != nil {
		return false, err
	}
	next, _, err := s.decodeNode(buf)
	if err != nil {
		return false, err
	}
	if err := s.h.WriteRoot(next); err != nil {
		return false, err
	}
	s.top = next
	s.size--
	return true, nil
}
