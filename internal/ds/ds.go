// Package ds implements the eight persistent data structures of the
// paper's evaluation on top of the AsymNVM front-end framework: Stack,
// Queue, HashTable, SkipList, binary search tree (BST), B+Tree, and the
// multi-version MV-BST and MV-B+Tree — plus the structure-specific
// optimizations of §8 (operation annihilation for stack/queue, hot-item
// caching for the hash table, level-biased caching and vector operations
// for trees, and key-hash partitioning across back-ends).
//
// Every structure follows the same discipline the core layer requires:
// NVM is read and written in fixed "units" (a whole node, a root slot, an
// 8-byte metadata word), all mutations flow through the operation/memory
// logs in the optimized modes, and each completed operation calls EndOp so
// batching and recovery see operation boundaries.
package ds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
	"asymnvm/internal/trace"
)

// Operation-log opcodes shared by the structures. Parameters are
// little-endian key bytes followed by the raw value.
const (
	OpPut     uint8 = 1 // {key, value}
	OpDelete  uint8 = 2 // {key}
	OpPush    uint8 = 3 // {value}   (stack push / queue enqueue)
	OpPop     uint8 = 4 // {}        (stack pop / queue dequeue)
	OpPutMany uint8 = 5 // vector write: {count, key..., value...}
)

// ErrValueTooLarge is returned when a value exceeds the structure's
// configured inline capacity (larger values belong in the blob variants
// of the applications layer).
var ErrValueTooLarge = errors.New("ds: value exceeds inline capacity")

// Options configures a structure instance.
type Options struct {
	// ValueCap is the inline value capacity of a node. Defaults to 64
	// bytes, the value size of the paper's microbenchmarks.
	ValueCap int
	// Buckets is the hash table's bucket count (default 1<<16).
	Buckets int
	// Create sizes the structure's log areas.
	Create core.CreateOptions
	// LockPerOp acquires and releases the exclusive writer lock around
	// every operation instead of holding it for the handle's lifetime.
	// The fine-grained variant is what §6.1 describes; the coarse default
	// is what makes batched writers cheap.
	LockPerOp bool
	// FlatCache disables the adaptive tree-level caching hint of §8.3 and
	// caches every node through the plain replacement policy ("native
	// LRU" in the paper's Figure 7 discussion) — the ablation baseline.
	FlatCache bool
}

func (o *Options) fill() {
	if o.ValueCap == 0 {
		o.ValueCap = 64
	}
	if o.Buckets == 0 {
		o.Buckets = 1 << 16
	}
}

// KV is the common key-value surface of the index structures.
type KV interface {
	Put(key uint64, val []byte) error
	Get(key uint64) ([]byte, bool, error)
	Flush() error
}

// kvBase is the handle plumbing the six index structures share: the
// framework handle, its per-operation write bracket, the inline value
// capacity and the role — and with them the half of the shard surface
// (Handle, Flush, Drain, Close) that is the same for every kind.
type kvBase struct {
	h      *core.Handle
	w      writerSession
	cap    int
	writer bool
	// params is the op-log parameter buffer every operation of the structure
	// encodes into: OpLog copies what it is given into the op buffer.
	params []byte
}

func newKVBase(h *core.Handle, opts Options, writer bool) kvBase {
	return kvBase{h: h, w: writerSession{h: h, lockPerOp: opts.LockPerOp}, cap: opts.ValueCap, writer: writer}
}

// Handle exposes the framework handle.
func (b *kvBase) Handle() *core.Handle { return b.h }

// Flush flushes the batch buffers.
func (b *kvBase) Flush() error { return b.h.Flush() }

// Drain flushes and waits for replay.
func (b *kvBase) Drain() error {
	if err := b.h.Flush(); err != nil {
		return err
	}
	return b.h.Drain()
}

// Close drains and releases the writer lock.
func (b *kvBase) Close() error {
	if !b.writer {
		return nil
	}
	if err := b.Drain(); err != nil {
		return err
	}
	return b.h.WriterUnlock()
}

// kv encodes {key, value} op-log parameters in the structure's buffer.
func (b *kvBase) kv(key uint64, val []byte) []byte {
	b.params = appendKV(b.params[:0], key, val)
	return b.params
}

// appendKV appends {key, value} op-log parameters to dst.
func appendKV(dst []byte, key uint64, val []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, key), val...)
}

// splitKV decodes {key, value} op-log parameters.
func splitKV(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, errors.New("ds: short kv params")
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// writerSession brackets one write operation: it takes the per-op lock
// when configured, and always marks the operation boundary.
type writerSession struct {
	h         *core.Handle
	lockPerOp bool
}

func (w writerSession) begin() error {
	fe := w.h.Conn().Frontend()
	fe.Tracer().Begin(trace.KindOp)
	fe.ChargeOp()
	if w.lockPerOp {
		return w.h.WriterLock()
	}
	return nil
}

func (w writerSession) end() error {
	defer w.h.Conn().Frontend().Tracer().End()
	if err := w.h.EndOp(); err != nil {
		return err
	}
	if w.lockPerOp {
		return w.h.WriterUnlock()
	}
	return nil
}

// cancel closes the operation span without marking the operation
// boundary — the error path of operations that can fail retryably (the
// multi-writer MV root conflict), keeping the tracer's span stack
// balanced across a re-execution.
func (w writerSession) cancel() {
	w.h.Conn().Frontend().Tracer().End()
}

// readRetry runs body under the optimistic reader lock until it validates
// (Algorithm 2's retry loop). Multi-version handles validate trivially.
// The structure's single writer needs no lock at all: its overlay patches
// every not-yet-replayed write over whatever the replayer has applied, so
// its reads are consistent by construction (SWMR).
func readRetry(h *core.Handle, body func() error) error {
	if h.IsWriter() {
		return body()
	}
	for {
		if err := h.ReaderLock(); err != nil {
			return err
		}
		if err := body(); err != nil {
			return err
		}
		// A real read section spans several fabric round trips; on a
		// single-core host, yielding here gives concurrent writers and
		// the replayer the interleaving they would have on real nodes.
		runtime.Gosched()
		ok, err := h.ReaderValidate()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// Replayer re-executes archived or pending op-log records through normal
// structure operations during recovery (§7.2 Cases 2.c/3.c and archive
// rebuild). Each structure implements it on its writer type.
type Replayer interface {
	ReplayOp(rec logrec.OpRecord) error
}

// replayTable is one structure kind's static map from op-log opcodes to
// the semantic mutators that re-execute them. A nil entry means the kind
// never logs that opcode.
type replayTable[S handled] struct {
	split func([]byte) (uint64, []byte, error) // OpPut params codec; nil = splitKV
	put   func(S, uint64, []byte) error        // OpPut, and every pair of an OpPutMany when many
	many  bool
	del   func(S, uint64) error // OpDelete
	push  func(S, []byte) error // OpPush
	pop   func(S) (bool, error) // OpPop; false = already empty, nothing happened
}

// replayOp re-executes one op-log record on s through its kind's table —
// the one place the transactional flag is masked, parameters are decoded,
// and the operation boundary is marked. A pop that finds the structure
// empty did nothing, so it marks no boundary.
func replayOp[S handled](s S, name string, rec logrec.OpRecord, tab *replayTable[S]) error {
	switch op := rec.OpType &^ logrec.OpTxFlag; {
	case op == OpPut && tab.put != nil:
		split := tab.split
		if split == nil {
			split = splitKV
		}
		key, val, err := split(rec.Params)
		if err != nil {
			return err
		}
		if err := tab.put(s, key, val); err != nil {
			return err
		}
	case op == OpPutMany && tab.many:
		keys, vals, err := decodePutMany(rec.Params)
		if err != nil {
			return err
		}
		for i := range keys {
			if err := tab.put(s, keys[i], vals[i]); err != nil {
				return err
			}
		}
	case op == OpDelete && tab.del != nil:
		key, _, err := splitKV(rec.Params)
		if err != nil {
			return err
		}
		if err := tab.del(s, key); err != nil {
			return err
		}
	case op == OpPush && tab.push != nil:
		_, val, err := splitKV(rec.Params)
		if err != nil {
			return err
		}
		if err := tab.push(s, val); err != nil {
			return err
		}
	case op == OpPop && tab.pop != nil:
		if popped, err := tab.pop(s); err != nil || !popped {
			return err
		}
	default:
		return fmt.Errorf("ds: %s cannot replay op %d", name, rec.OpType)
	}
	return s.Handle().EndOp()
}

// ReplayPending drains a writer handle's uncovered op-log records through
// r — the front-end half of Case 2.c: operations that were acknowledged
// (their op log persisted) but whose memory logs never made it.
func ReplayPending(h *core.Handle, r Replayer) (int, error) {
	ops, err := h.PendingOps()
	if err != nil {
		return 0, err
	}
	for i, rec := range ops {
		if err := r.ReplayOp(rec); err != nil {
			return i, fmt.Errorf("ds: replaying pending op %d: %w", i, err)
		}
	}
	return len(ops), nil
}
