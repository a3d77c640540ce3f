package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"asymnvm/internal/arena"
	"asymnvm/internal/backend"
	"asymnvm/internal/logrec"
	"asymnvm/internal/rdma"
	"asymnvm/internal/trace"
)

// Write-path tuning knobs.
const (
	// hintEvery is how many commits apart the tail hints (§5.1 metadata)
	// ride one: every hintEvery-th commit vector carries them.
	hintEvery = 16
	// pruneMarks bounds the number of un-pruned flush marks before the
	// overlay consults the back-end LPN.
	pruneMarks = 48
	// gcDelayFlushes and gcMinAge together form the lazy-reclamation
	// delay of §6.2 (the paper waits n+l µs and requires every pending
	// reader operation to finish within n µs). The flush-count part ties
	// reclamation to write progress; the host-time floor covers readers
	// whose goroutines the host descheduled mid-traversal — the
	// simulator's equivalent of the paper's timing assumption.
	gcDelayFlushes = 8
	gcMinAge       = 200 * time.Millisecond
	// pollLimit bounds remote polling loops so a wedged back-end surfaces
	// as an error instead of a hang.
	pollLimit = 1 << 22
)

// ErrNotWriter is returned when a read-only handle performs a write.
var ErrNotWriter = errors.New("core: handle is not in writer mode")

// ErrRootConflict reports a lost publication race in multi-writer MV mode
// (RedirectRoot): the root CAS found the shared root moved by a
// concurrent front-end after this operation read it. The operation left
// no visible effect (its nodes are applied but unreachable) and can be
// re-executed after backoff.
var ErrRootConflict = errors.New("core: shared root moved by a concurrent writer")

// ErrUnitMismatch reports a read whose length differs from the unit the
// writer previously logged at that address. Data-structure code must read
// and write at matching unit granularity (a whole node, or a standalone
// word) — this is what keeps the overlay, the cache and replay coherent.
var ErrUnitMismatch = errors.New("core: read length does not match written unit")

// ovEntry is one overlay unit: the writer's freshest bytes for an address
// whose memory logs have not been confirmed replayed yet.
type ovEntry struct {
	data []byte
	refs int // flush marks (plus the pending tx) still referencing it
}

// undoEnt records the overlay bytes one in-window rewrite displaced
// (arena-sliced to keep the hot path allocation-steady). An abort
// replays these in reverse so a unit still referenced by earlier flush
// marks reverts to its pre-transaction value — without it, the aborted
// bytes would stay authoritative in the overlay and surface uncommitted
// state to every later read.
type undoEnt struct {
	addr uint64
	off  int
	len  int
}

// flushMark remembers which overlay units one flushed transaction wrote,
// and the memory-log offset its replay completion is visible at.
type flushMark struct {
	endAbs uint64
	addrs  []uint64
}

// asyncOpFlush is one posted-but-unsettled op-log flush: the completion
// token and the posted payload, retained for an idempotent synchronous
// re-issue if the completion carries a fault. buf is the op buffer the
// ops slice into; settling recycles it through the handle's freelist.
type asyncOpFlush struct {
	tok rdma.Token
	ops []rdma.WriteOp
	buf []byte
}

// gcItem is a lazily reclaimed old-version allocation (§6.2).
type gcItem struct {
	addr   uint64
	size   int
	after  int // flushCnt after which release is safe
	bornAt time.Time
}

// Handle is a front-end's session with one persistent data structure: the
// rnvm_* API of Table 1 bound to a naming-table slot.
type Handle struct {
	c    *Conn
	slot uint16
	typ  uint8
	tag  uint32
	mv   bool // multi-version: immutable nodes, no seqlock needed

	auxAddr uint64 // global address of the aux block
	memArea logrec.Area
	opArea  logrec.Area

	// Writer-side state (valid when writer is true).
	writer   bool
	lockHeld bool
	// shared marks the writer lock as contended by other front-ends
	// (striped structures): acquisition resyncs the log tails from the
	// durable hints the previous holder left, and release drains so the
	// next holder's resync is exact. lockPin suppresses per-operation
	// WriterUnlock brackets while a multi-stripe ordered lock set is held
	// (see LockOrdered).
	shared  bool
	lockPin int
	// rootCAS redirects root access to another slot's root word and
	// publishes updates with compare-and-swap instead of the log path —
	// the lock-free multi-writer mode of MV structures. rootSeen is the
	// root value the current operation's traversal started from; the CAS
	// failing against it surfaces as ErrRootConflict.
	rootCAS     bool
	rootCASSlot uint16
	rootSeen    uint64
	memTail     uint64
	opTail      uint64
	lpnKnown    uint64
	opnKnown    uint64
	// Log append-space gates. With the compaction plane, reclaimed space
	// is bounded by the truncation points, not the replay cursors: the
	// back-end may have applied a record (LPN past it) without having
	// made the application durable yet, so the bytes are not reusable.
	// Without compaction the back-end advances both in lockstep.
	memTruncKnown uint64
	opTruncKnown  uint64
	// pending is the open transaction's memory log: its inline values slice
	// into vals, and pendingAddrs names the overlay unit of every write in it
	// (one reference each). clearPending ends the transaction's hold on all
	// three.
	pending      []logrec.MemEntry
	vals         arena.Arena
	pendingAddrs []uint64
	coveredOp    uint64
	opsInTx      int
	opBuf        []byte
	opBufAbs     uint64
	opBufCnt     int
	asyncOps     []asyncOpFlush
	// txBuf is the commit record's reused encode scratch and vec the fused
	// commit vector's (safe because every flush path waits its WRs out
	// before the next build; a posted flush takes vec along until Settle).
	// bufFree and opsFree recycle the op buffers and write vectors whose
	// ownership moved to in-flight op-record WRs, once those WRs settle.
	txBuf   []byte
	vec     []rdma.WriteOp
	bufFree [][]byte
	opsFree [][]rdma.WriteOp
	overlay map[uint64]*ovEntry
	ovSeq   uint64
	marks   []flushMark
	// ovFree recycles the overlay entries the prune, a drain or an abort takes
	// out of the map and addrFree the address lists of retired flush marks,
	// each the pendingAddrs of a later transaction; Abort drops both.
	ovFree   sizedFree[ovEntry]
	addrFree [][]uint64
	// hintBuf is the tail-hint segment of a commit vector (see persistHints).
	hintBuf [16]byte
	// rootBuf is ReadRoot's fetch buffer: the root word, or — a multi-version
	// reader — the root and the sequence number beside it.
	rootBuf [24]byte
	gcList  []gcItem
	// gcTxStart is gcList's length at the last transaction boundary;
	// aborts truncate back to it, un-scheduling DelayedFrees the rolled
	// back operations issued against nodes that remain live.
	gcTxStart int
	// undoLog/undoArena hold the displaced overlay values of the current
	// flush window (see undoEnt); cleared at every window close.
	undoLog   []undoEnt
	undoArena []byte
	flushCnt  int
	inFlush   bool

	// opGroupCommit defers op-log flushes to the batch boundary. Off by
	// default: §4.3's write durability point is the op-log persist, so
	// under batching each operation persists its op record on its own
	// (Figure 2, line 15). Stack and queue enable it — their §8.1
	// annihilation keeps "un-executed operation logs in the front-end
	// memory", trading a bounded durability window for group commit.
	opGroupCommit bool

	// commitT0 is the virtual time the in-progress commit flush started
	// at, the controller's latency sample boundary (autotune.go).
	commitT0 time.Duration

	// hold2pc marks the handle enrolled in a cross-shard transaction
	// (twopc.go): batch-quota flushes are suppressed so the buffered
	// memory logs leave the front-end only inside a PrepareRecord.
	hold2pc bool
	// grouped marks an open BeginGroup/EndGroup bracket: the same hold,
	// request-scoped, ended by one ordinary commit flush.
	grouped bool
	// inDoubt / unEnded are populated by the writer's recovery scan
	// (recoverTails): prepares with no resolving decision in this log,
	// and coordinator commit records not yet forgotten by a KindEnd.
	// RecoverTx consumes them.
	inDoubt []logrec.PrepareRecord
	unEnded []uint64

	// Reader-side state.
	curSN uint64
}

// SetOpGroupCommit enables op-log group commit (stack/queue, §8.1).
func (h *Handle) SetOpGroupCommit(on bool) { h.opGroupCommit = on }

// SetSharedWriter marks the handle's writer lock as shared between
// front-ends: WriterLock resyncs the durable log tails on every
// acquisition and WriterUnlock drains before handing the stripe off.
func (h *Handle) SetSharedWriter(on bool) { h.shared = on }

// RedirectRoot switches the handle into lock-free multi-writer mode:
// root reads load slot's root word directly (uncached) and root writes
// publish with compare-and-swap against the value the operation read,
// failing with ErrRootConflict when a concurrent writer moved it. The
// handle's own logs still carry the node writes — only the root word of
// the shared structure is bypassed.
func (h *Handle) RedirectRoot(slot uint16) {
	h.rootCAS = true
	h.rootCASSlot = slot
}

// Slot returns the naming-table slot.
func (h *Handle) Slot() uint16 { return h.slot }

// Type returns the structure's type tag.
func (h *Handle) Type() uint8 { return h.typ }

// Conn returns the underlying connection.
func (h *Handle) Conn() *Conn { return h.c }

// IsWriter reports whether this handle owns the write path.
func (h *Handle) IsWriter() bool { return h.writer }

// MultiVersion marks the handle as operating a multi-version structure:
// node bytes are immutable, so cached entries never go stale and readers
// skip the seqlock.
func (h *Handle) MultiVersion(on bool) { h.mv = on }

// AuxAddr returns the global address of the structure's aux block; bytes
// at AuxAddr()+backend.AuxUser.. are the structure's private metadata.
func (h *Handle) AuxAddr() uint64 { return h.auxAddr }

// RootAddr returns the global address of the root pointer slot.
func (h *Handle) RootAddr() uint64 {
	return backend.GlobalAddr(h.c.backendID, h.c.layout.RootOff(h.slot))
}

// devOff translates a global address to a device offset on this handle's
// back-end, rejecting foreign addresses.
func (h *Handle) devOff(addr uint64) (uint64, error) {
	if addr == 0 {
		return 0, errors.New("core: nil NVM address")
	}
	if backend.AddrNode(addr) != h.c.backendID {
		return 0, fmt.Errorf("core: address %#x is not on back-end %d", addr, h.c.backendID)
	}
	return backend.AddrOff(addr), nil
}

// readEpoch is the cache-validity epoch for this handle's role. The
// single writer's view never goes stale (its overlay is authoritative);
// readers — including multi-version readers — tag entries with the
// seqlock SN observed at the start of the operation: when the replayer
// applies a transaction the SN moves and stale entries fall out, which is
// what makes node-address reuse by the lazy GC safe for cached copies.
func (h *Handle) readEpoch() uint64 {
	if h.writer {
		return EpochAlways
	}
	return h.curSN
}

// local serves addr from the front-end's own memory: the writer's overlay
// (authoritative for its unreplayed units), then the DRAM cache, which
// answers only with an image that covers all n bytes. The view is the
// owner's slice: read-only, an overlay's good until that unit is next
// written, a cache's until anything is next admitted — by a read or, while
// the cache fills, by a write.
func (h *Handle) local(addr uint64, n int, cacheable bool) ([]byte, bool, error) {
	fe := h.c.fe
	var view []byte
	if e, ok := h.overlay[addr]; ok && h.writer {
		if len(e.data) != n {
			return nil, false, fmt.Errorf("%w: addr %#x unit %d, read %d", ErrUnitMismatch, addr, len(e.data), n)
		}
		view = e.data
	} else if fe.cache == nil {
		return nil, false, nil
	} else if view, ok = fe.cache.GetUnit(addr, n, h.readEpoch(), cacheable); !ok {
		return nil, false, nil
	}
	h.chargeDRAM(1)
	return view, true, nil
}

// chargeDRAM charges n accesses to the front-end's own memory.
func (h *Handle) chargeDRAM(n int) {
	if n == 0 {
		return
	}
	fe := h.c.fe
	d := time.Duration(n) * fe.prof.DRAMAccess
	fe.clk.Advance(d)
	fe.tr.Charge(trace.KindCacheHit, d)
}

// fetch reads the unit at addr over the fabric into buf.
func (h *Handle) fetch(addr uint64, buf []byte) error {
	off, err := h.devOff(addr)
	if err != nil {
		return err
	}
	fe := h.c.fe
	fe.tr.BeginArg(trace.KindFetch, addr)
	err = h.c.epRead(off, buf)
	fe.tr.End()
	return err
}

// fill offers a unit just fetched from the fabric by a cacheable read to
// the DRAM cache. Every whole-unit insertion of the read path goes through
// here, so a hit never copies into the cache.
func (h *Handle) fill(addr uint64, unit []byte, cacheable bool) {
	if fe := h.c.fe; cacheable && fe.cache != nil {
		fe.cache.Put(addr, unit, h.tag, h.readEpoch())
	}
}

// AdmitKeyed offers the DRAM cache the head of the unit-byte unit at addr —
// hdr, its leading bytes — as a prefix image the structure can search for
// by order key (Floor) or probe by address (Cached); rank biases eviction
// (Cache.PutKeyed). An image already there is refreshed and marked used, so
// a structure that admits every node it visits, wherever the bytes came
// from, keeps a cache whose content follows the operation stream alone.
// Reads of the whole unit pass a prefix image by: the overlay, then the
// fabric. Admission is bookkeeping and is not charged.
//
// The caller vouches for what makes such an image valid at every epoch, for
// readers too: the unit at addr is never freed or moved while the structure
// lives, and the bytes of hdr its searches steer by never change. (Bytes
// that do change are kept current for the writer by write-through; a reader
// must take them from the unit, not from the image.)
func (h *Handle) AdmitKeyed(addr uint64, hdr []byte, unit int, key uint64, rank uint8) {
	if c := h.c.fe.cache; c != nil {
		c.PutKeyed(addr, hdr, unit, h.tag, EpochAlways, key, rank)
	}
}

// Floor returns the address and image of the nearest keyed entry at or
// below k — the greatest order key <= k — among those of rank at least
// minRank (0: any), charging one DRAM access per index node the search
// visits. Without a cache there is nothing to find and nothing is charged.
// The image is the cache's own: good until the next admission.
func (h *Handle) Floor(k uint64, minRank uint8) (addr uint64, img []byte, ok bool) {
	c := h.c.fe.cache
	if c == nil {
		return 0, nil, false
	}
	addr, img, visited, ok := c.Floor(h.tag, k, minRank, h.readEpoch())
	h.chargeDRAM(visited)
	return addr, img, ok
}

// Cached probes the DRAM cache for whatever image it holds of the unit at
// addr — for a keyed entry, the head that was admitted — charging one DRAM
// access on a hit. The image is the cache's own: good until the next
// admission.
func (h *Handle) Cached(addr uint64) ([]byte, bool) {
	c := h.c.fe.cache
	if c == nil {
		return nil, false
	}
	img, ok := c.Get(addr, h.readEpoch(), false)
	if ok {
		h.chargeDRAM(1)
	}
	return img, ok
}

// Read implements rnvm_read: overlay (the writer's unreplayed units),
// then the DRAM cache, then a one-sided RDMA read — Figure 4's gather
// path. cacheable selects between swap-in (hot data) and direct remote
// read (cold data), the structure-specific choice of §4.4/§8: the cache
// is always consulted (a hit is a hit), but only cacheable reads fill it
// or count as misses. The result is the caller's own copy.
func (h *Handle) Read(addr uint64, n int, cacheable bool) ([]byte, error) {
	view, ok, err := h.local(addr, n, cacheable)
	if err != nil {
		return nil, err
	}
	if ok {
		out := make([]byte, len(view))
		copy(out, view)
		return out, nil
	}
	buf := make([]byte, n)
	if err := h.fetch(addr, buf); err != nil {
		return nil, err
	}
	h.fill(addr, buf, cacheable)
	return buf, nil
}

// ReadInto is Read without the copy, for read-only traversals: a hit
// returns the overlay's or the cache's own bytes (see local for how long
// they are good) and a miss is fetched into dst, whose length is the unit
// size.
func (h *Handle) ReadInto(addr uint64, dst []byte, cacheable bool) ([]byte, error) {
	view, ok, err := h.local(addr, len(dst), cacheable)
	if ok || err != nil {
		return view, err
	}
	if err := h.fetch(addr, dst); err != nil {
		return nil, err
	}
	h.fill(addr, dst, cacheable)
	return dst, nil
}

// MultiBuf is what one ReadMulti builds its results in: the result vector,
// one slab that holds every unit, and the miss lists. A caller that keeps one
// reads without allocating, and its results are good until that buffer's
// next ReadMulti.
type MultiBuf struct {
	out     [][]byte
	slab    []byte
	missIdx []int
	ops     []rdma.ReadOp
}

// ReadMulti is the multi-get companion of Read: every address is looked
// up at unit size n through overlay and cache first, and the misses are
// fetched as independent one-sided reads posted to the connection's
// pipeline — one doorbell group per queue-depth window instead of one
// round trip per address. Results index-match addrs and lie in mb (nil: a
// fresh one, so the results are the caller's own). A hit is copied there,
// not returned as a view: a view dies at the next admission, and the misses
// of this very call are admitted before it returns. This is what turns a
// multi-node traversal (B+-tree leaf scan, hash-chain walk across keys) from
// RTT-bound into bandwidth-bound.
func (h *Handle) ReadMulti(mb *MultiBuf, addrs []uint64, n int, cacheable bool) ([][]byte, error) {
	if mb == nil {
		mb = new(MultiBuf)
	}
	fe := h.c.fe
	mb.slab = slices.Grow(mb.slab[:0], len(addrs)*n)[:len(addrs)*n]
	mb.out, mb.missIdx, mb.ops = mb.out[:0], mb.missIdx[:0], mb.ops[:0]
	for i, addr := range addrs {
		buf := mb.slab[i*n : (i+1)*n : (i+1)*n]
		view, ok, err := h.local(addr, n, cacheable)
		if err != nil {
			return nil, err
		}
		if ok {
			mb.out = append(mb.out, buf[:copy(buf, view)])
			continue
		}
		off, err := h.devOff(addr)
		if err != nil {
			return nil, err
		}
		mb.out = append(mb.out, buf)
		mb.missIdx = append(mb.missIdx, i)
		mb.ops = append(mb.ops, rdma.ReadOp{Off: off, Buf: buf})
	}
	if len(mb.ops) == 0 {
		return mb.out, nil
	}
	fe.tr.BeginArg(trace.KindFetch, uint64(len(mb.ops)))
	err := h.c.epReadV(mb.ops)
	fe.tr.End()
	if err != nil {
		return nil, err
	}
	for _, i := range mb.missIdx {
		h.fill(addrs[i], mb.out[i], cacheable)
	}
	return mb.out, nil
}

// ReadUncached is a direct remote read that bypasses cache and overlay
// (multi-version root loads, recovery scans).
func (h *Handle) ReadUncached(addr uint64, n int) ([]byte, error) {
	off, err := h.devOff(addr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := h.c.epRead(off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Range is a dirty byte range of a unit: Len bytes at Off.
type Range struct{ Off, Len int }

// mergeGap is the widest gap between two dirty ranges that is logged along
// with them instead of split around: an inline memory-log entry's header is
// 13 bytes, so bridging a gap that wide never costs wire bytes and always
// saves the back-end one write.
const mergeGap = 13

// Write implements rnvm_write at unit granularity. In the optimized modes
// it appends a memory log entry (rnvm_mem_log) to the front-end buffer,
// patches the overlay and writes through to the cache; in the naive
// baseline it writes the unit in place over RDMA.
func (h *Handle) Write(addr uint64, data []byte) error {
	whole := [1]Range{{0, len(data)}}
	return h.write(addr, data, whole[:], 0, 0, false)
}

// WriteFromOp is Write for bytes that literally appear in a previously
// appended operation log record: the memory log entry carries a pointer
// {opAbs, srcOff} instead of the value (Figure 3's Flag), shrinking the
// flushed log (§4.3).
func (h *Handle) WriteFromOp(addr uint64, data []byte, opAbs uint64, srcOff uint32) error {
	whole := [1]Range{{0, len(data)}}
	return h.write(addr, data, whole[:], opAbs, srcOff, true)
}

// WriteRanges is Write for a unit rewritten to change a few of its bytes:
// unit is the whole new image, dirty — ascending — names every byte of it
// that differs from the unit as last read or written. The overlay is the
// whole unit and the log is the diff: overlay, undo log, flush-mark
// reference and cache write-through take the image exactly as Write would,
// while the memory log gets one entry per dirty range (neighbours within
// mergeGap bytes of each other share one), so replay patches those bytes
// into the unit NVM already holds. Empty ranges are skipped; a call that
// names no dirty byte changes nothing.
func (h *Handle) WriteRanges(addr uint64, unit []byte, dirty ...Range) error {
	return h.write(addr, unit, dirty, 0, 0, false)
}

func (h *Handle) write(addr uint64, unit []byte, dirty []Range, opAbs uint64, srcOff uint32, fromOp bool) error {
	if !h.writer {
		return ErrNotWriter
	}
	fe := h.c.fe
	if !fe.mode.OpLog {
		// Naive baseline: a separate in-place RDMA write per unit — the
		// whole unit, whatever part of it is dirty.
		off, err := h.devOff(addr)
		if err != nil {
			return err
		}
		return h.c.epWrite(off, unit)
	}
	// The pointer form only pays off when the op log is group committed
	// ahead of the memory logs.
	opRef := fromOp && fe.mode.Batch > 1
	logged := len(h.pending)
	var cur Range
	for _, r := range dirty {
		switch {
		case r.Len <= 0:
		case r.Off < cur.Off || r.Off+r.Len > len(unit):
			h.pending = h.pending[:logged]
			return fmt.Errorf("core: dirty range {%d,%d} of the %d-byte unit at %#x is out of order or bounds", r.Off, r.Len, len(unit), addr)
		case cur.Len > 0 && r.Off <= cur.Off+cur.Len+mergeGap:
			if end := r.Off + r.Len; end > cur.Off+cur.Len {
				cur.Len = end - cur.Off
			}
		default:
			h.logRange(addr, unit, cur, opAbs, srcOff, opRef)
			cur = r
		}
	}
	h.logRange(addr, unit, cur, opAbs, srcOff, opRef)
	if len(h.pending) == logged {
		return nil
	}
	h.pendingAddrs = append(h.pendingAddrs, addr)
	fe.st.MemLogs.Add(int64(len(h.pending) - logged))

	// Overlay: authoritative until the replayer confirms application.
	if h.overlay == nil {
		h.overlay = make(map[uint64]*ovEntry)
	}
	if oe, ok := h.overlay[addr]; ok {
		// The unit is still referenced by earlier flush marks: save the
		// displaced bytes so an abort can make them authoritative again.
		off := len(h.undoArena)
		h.undoArena = append(h.undoArena, oe.data...)
		h.undoLog = append(h.undoLog, undoEnt{addr: addr, off: off, len: len(oe.data)})
		oe.data = append(oe.data[:0], unit...)
		oe.refs++
	} else {
		h.overlay[addr] = h.newOvEntry(unit)
	}
	// Write-through to the cache (Figure 4, step 4): an image it holds is
	// patched; one it lacks is admitted while the cache still fills, unless
	// it is an operation's payload (fromOp): written once, never read back.
	if c := fe.cache; c != nil && !c.Update(addr, 0, unit) && !fromOp {
		c.Admit(addr, unit, h.tag)
	}
	return nil
}

// logRange appends the memory-log entry of one dirty range of the unit at
// addr (none for the empty range): the value inline, a copy in the
// transaction's arena, or — fromOp — as a pointer into the op record the
// whole unit appears in at srcOff.
func (h *Handle) logRange(addr uint64, unit []byte, r Range, opAbs uint64, srcOff uint32, fromOp bool) {
	if r.Len == 0 {
		return
	}
	e := logrec.MemEntry{Flag: logrec.FlagInline, Addr: addr + uint64(r.Off), Len: uint32(r.Len)}
	if fromOp {
		e.Flag = logrec.FlagOpRef
		e.OpAbs = opAbs
		e.SrcOff = srcOff + uint32(r.Off)
	} else {
		e.Value = h.vals.Copy(unit[r.Off : r.Off+r.Len])
	}
	h.pending = append(h.pending, e)
}

// newOvEntry returns an overlay entry holding a copy of unit with one
// reference: a recycled one of that unit size, or a new one.
func (h *Handle) newOvEntry(unit []byte) *ovEntry {
	if oe := h.ovFree.take(len(unit)); oe != nil {
		oe.data, oe.refs = append(oe.data[:0], unit...), 1
		return oe
	}
	return &ovEntry{data: append([]byte(nil), unit...), refs: 1}
}

// unref drops one reference to the overlay unit at addr; the last one takes
// the entry out of the map and onto its size's free list. Whoever held a
// view of the image (local) has finished with it: a view is good only until
// the unit is next written or pruned.
func (h *Handle) unref(addr uint64) {
	oe, ok := h.overlay[addr]
	if !ok {
		return
	}
	if oe.refs--; oe.refs > 0 {
		return
	}
	delete(h.overlay, addr)
	h.ovFree.give(len(oe.data), oe)
}

// dropOverlay retires every overlay unit and flush mark at once (all applied,
// or outdated by another front-end's writes) through the prune's recycling,
// so a handle that drains per operation keeps its entries.
func (h *Handle) dropOverlay() {
	for _, oe := range h.overlay {
		h.ovFree.give(len(oe.data), oe)
	}
	clear(h.overlay)
	for _, m := range h.marks {
		h.addrFree = append(h.addrFree, m.addrs[:0])
	}
	h.marks = h.marks[:0]
}

// OpLog implements rnvm_op_log: it appends {opType, params} for this
// structure to the op-record buffer and returns the record's absolute
// op-log offset, which WriteFromOp entries may reference. Without batching
// the record rides the operation's own commit flush at EndOp — op-log
// segments first, commit record behind them, one round trip — and that
// flush, still ahead of the acknowledgement, is the write's durability
// point. (On a pipelined connection the record is posted here without a
// doorbell: it leaves with the first fabric access of the operation's
// gather phase and overlaps with it, or, on a warm cache, with the commit
// record under the commit's doorbell.) With batching the record is
// persisted per operation, ahead of the batched rnvm_tx_write that covers
// it (or joins the group commit of stack/queue).
func (h *Handle) OpLog(opType uint8, params []byte) (uint64, error) {
	if !h.writer {
		return 0, ErrNotWriter
	}
	fe := h.c.fe
	if !fe.mode.OpLog {
		return 0, nil
	}
	if h.hold2pc {
		// Flag transactional records: their effects ride in the prepare,
		// so recovery settles them by prepare resolution, never by
		// re-execution (see logrec.OpTxFlag).
		opType |= logrec.OpTxFlag
	}
	rec := logrec.OpRecord{DSSlot: h.slot, OpType: opType, Abs: h.opTail, Params: params}
	if h.opBufCnt == 0 {
		h.opBufAbs = h.opTail
	}
	// Encode straight into the group-commit buffer: no per-record wire
	// allocation, no second copy.
	h.opBuf = rec.AppendTo(h.opBuf)
	h.opBufCnt++
	h.opTail += uint64(rec.EncodedLen())
	fe.st.OpLogs.Add(1)
	// Held (cross-shard transaction or request group) the records must not
	// become durable ahead of the flush that ends the hold: a prepare moves
	// their durability point to phase one, a group to EndGroup.
	var err error
	switch {
	case h.held():
	case fe.mode.Batch > 1:
		if !h.opGroupCommit {
			err = h.persistOps(true)
		}
	case h.c.pipelined():
		err = h.persistOps(false)
	}
	return rec.Abs, err
}

// held reports whether batch-quota flushes and per-operation op-record
// persists are suppressed: the handle is enrolled in a cross-shard
// transaction or inside a BeginGroup/EndGroup bracket.
func (h *Handle) held() bool { return h.hold2pc || h.grouped }

// BeginGroup opens a request-scoped group commit: until EndGroup the
// operations run buffer their op records and memory logs in the front-end
// — nothing reaches the fabric — so N operations of one request become N
// op records and one commit record in a single round trip. Whatever a
// batched mode still holds from earlier operations is flushed first, so
// the group is a transaction of its own and aborting it touches nothing
// that was acknowledged before.
func (h *Handle) BeginGroup() error {
	if err := h.Flush(); err != nil {
		return err
	}
	h.grouped = true
	return nil
}

// EndGroup closes the bracket and flushes the group; its return is the
// durability point of every operation in it. A caller whose operation
// failed inside the bracket calls Abort instead, which drops the whole
// group: none of its op records ever left the front-end.
func (h *Handle) EndGroup() error {
	h.grouped = false
	return h.Flush()
}

// EndOp marks the end of one data-structure operation: every memory log
// of the op is buffered, so the operation log up to here is covered by
// the pending transaction. When the batch quota is reached the buffers
// flush (§4.3's batching).
func (h *Handle) EndOp() error {
	if !h.writer || !h.c.fe.mode.OpLog {
		return nil
	}
	// An op record in flight since the op's gather phase must settle
	// before the op is considered done — this is where the overlapped
	// round trip is paid, minus whatever the gather phase already hid.
	// One still queued waits for the commit's doorbell below.
	if err := h.settleAsyncOps(false); err != nil {
		return err
	}
	h.coveredOp = h.opTail
	h.opsInTx++
	if h.opsInTx >= h.c.fe.effBatch() && !h.held() {
		return h.Flush()
	}
	return nil
}

// InDoubtPrepares returns the prepare records the writer's recovery scan
// found with no resolving decision, in log order. RecoverTx resolves
// them against the coordinator's log.
func (h *Handle) InDoubtPrepares() []logrec.PrepareRecord { return h.inDoubt }

// UnEndedCommits returns the transaction ids of coordinator commit
// records the writer's recovery scan found without a matching KindEnd.
func (h *Handle) UnEndedCommits() []uint64 { return h.unEnded }

// Flush forces the buffered op records and the pending rnvm_tx_write out
// in one fabric round trip (see commit) and waits for it.
func (h *Handle) Flush() error {
	_, err := h.commit(nil, false)
	return err
}

// prepareHdr is the cross-shard identity that turns a commit flush into
// phase one of 2PC: the buffered entries leave inside a PrepareRecord.
type prepareHdr struct {
	txid                 uint64
	coordNode, coordSlot uint16
}

// PendingFlush is a commit flush posted by FlushAsync (or a 2PC prepare)
// whose fused write may still be in flight. The handle must not run
// further operations until Settle returns: the in-flight WRs own the
// handle's commit scratch until then.
type PendingFlush struct {
	h       *Handle
	toks    [2]rdma.Token
	nTok    int
	vec     []rdma.WriteOp // fused vector, kept for the re-drive
	opBuf   []byte         // op-record bytes the in-flight WR slices into
	wireLen int            // record bytes appended to the memory log
	prepare bool
	settled bool
}

// commit is the one commit flush: the fused vector [op-log segments…,
// memory-log record segments…] is built once into the handle's scratch
// and issued under one doorbell — as posted work requests when it is to
// fly asynchronously or joins an op record OpLog left queued, as a single
// WriteV otherwise. Segments execute and seal in posted order either way
// and a failed one flushes everything behind it, so the record can never
// become durable over a hole in the op log; the retry rewrites the same
// bytes at the same offsets, idempotently. prep turns the record into a
// PrepareRecord. With async set (and a pipelined connection) the flush
// is posted but not waited for and the returned PendingFlush completes
// it; otherwise the flush is complete on return.
func (h *Handle) commit(prep *prepareHdr, async bool) (PendingFlush, error) {
	done := PendingFlush{settled: true}
	if !h.writer || !h.c.fe.mode.OpLog {
		return done, nil
	}
	// The record covers op-log offsets up to coveredOp. Op records already
	// in flight are waited out (and re-driven) before it is issued: doorbell
	// groups fail independently. Ones still queued share its doorbell.
	if err := h.settleAsyncOps(false); err != nil {
		return done, err
	}
	// inFlush marks waitOpSpace's make-room flush, which sends the pending
	// record alone so the back-end can advance op-log coverage.
	withOps := h.opBufCnt > 0 && !h.inFlush
	if !withOps && len(h.pending) == 0 && prep == nil {
		return done, h.settleAsyncOps(true)
	}
	h.commitT0 = h.c.fe.clk.Now()
	tr := h.c.fe.tr
	if len(h.pending) == 0 && prep == nil {
		tr.BeginArg(trace.KindOpLogFlush, uint64(len(h.opBuf)))
	} else {
		tr.BeginArg(trace.KindCommit, uint64(len(h.pending)))
	}
	defer tr.End()
	if withOps {
		if err := h.waitOpSpace(); err != nil {
			return done, err
		}
	}
	// Encode into the handle's reused scratch. waitOpSpace may have sent
	// the pending entries ahead to make room; then only the op group is left.
	var wire []byte
	switch {
	case prep != nil:
		rec := logrec.PrepareRecord{
			DSSlot:    h.slot,
			Abs:       h.memTail,
			TxID:      prep.txid,
			CoordNode: prep.coordNode,
			CoordSlot: prep.coordSlot,
			CoverOp:   h.coveredOp,
			Entries:   h.pending,
		}
		wire = rec.AppendTo(h.txBuf[:0])
	case len(h.pending) > 0:
		rec := logrec.TxRecord{
			DSSlot:  h.slot,
			Abs:     h.memTail,
			CoverOp: h.coveredOp,
			Entries: h.pending,
		}
		wire = rec.AppendTo(h.txBuf[:0])
	}
	if wire != nil {
		h.txBuf = wire
		if err := h.waitMemSpace(len(wire)); err != nil {
			return done, err
		}
	}
	vec := h.vec[:0]
	if withOps {
		vec = appendAreaOps(vec, h.opArea, h.opBufAbs, h.opBuf)
	}
	split := len(vec)
	vec = appendAreaOps(vec, h.memArea, h.memTail, wire)
	if wire != nil && prep == nil && (h.flushCnt+1)%hintEvery == 0 {
		// The tail hints, last (see persistHints): the memory log's as of this
		// record's end, the op log's short of what a make-room flush leaves.
		opTail := h.opTail
		if h.opBufCnt > 0 && !withOps {
			opTail = h.opBufAbs
		}
		putLE64(h.hintBuf[:8], h.memTail+uint64(len(wire)))
		putLE64(h.hintBuf[8:], opTail)
		vec = append(vec, rdma.WriteOp{Off: backend.AddrOff(h.auxAddr) + backend.AuxMemTailOff, Data: h.hintBuf[:]})
	}
	h.vec = vec
	pf := PendingFlush{h: h, wireLen: len(wire), prepare: prep != nil}
	// Posting pays when the caller overlaps the flight (async) or a queued
	// op record shares the doorbell; alone, a WriteV is the same round
	// trip without the posting cost.
	if h.c.pipelined() && (async || len(h.asyncOps) > 0) {
		// One WR per half, one doorbell. Scratch and op buffer belong to
		// the in-flight WRs until Settle hands them back.
		if split > 0 {
			pf.toks[pf.nTok] = h.c.ep.PostWriteV(vec[:split])
			pf.nTok++
		}
		if split < len(vec) {
			pf.toks[pf.nTok] = h.c.ep.PostWriteV(vec[split:])
			pf.nTok++
		}
		h.c.ep.Doorbell()
		pf.vec, h.vec = vec, nil
		if withOps {
			pf.opBuf = h.opBuf
			h.opBuf = h.takeBuf()
			h.opBufCnt = 0
		}
		h.c.kick()
		if async {
			return pf, nil
		}
		return done, pf.Settle()
	}
	if err := h.c.epWriteV(vec); err != nil {
		return done, err
	}
	if withOps {
		h.opBuf = h.opBuf[:0]
		h.opBufCnt = 0
	}
	return done, pf.complete()
}

// complete is the post-durability bookkeeping of a commit flush.
func (pf *PendingFlush) complete() error {
	h := pf.h
	switch {
	case pf.prepare:
		// The entries stay buffered until the decision (finish2PC).
		h.memTail += uint64(pf.wireLen)
	case pf.wireLen > 0:
		return h.finishTx(pf.wireLen)
	}
	h.c.kick()
	return nil
}

// Settle waits the posted flush out and completes the commit. Op records
// that shared its doorbell settle first, so a re-driven record lands over
// a whole op log. A faulted completion re-drives the whole vector
// synchronously through the retry/failover policy — rewriting the same
// log bytes at the same offsets is idempotent, like the sync path's retry.
func (pf *PendingFlush) Settle() error {
	if pf == nil || pf.settled || pf.h == nil {
		return nil
	}
	pf.settled = true
	h := pf.h
	err := h.settleAsyncOps(true)
	failed := false
	for _, tok := range pf.toks[:pf.nTok] {
		if h.c.ep.Wait(tok) != nil {
			failed = true
		}
	}
	if failed && err == nil {
		h.c.fe.st.VerbRetries.Add(1)
		err = h.c.epWriteV(pf.vec)
	}
	h.vec, pf.vec = pf.vec[:0], nil
	if pf.opBuf != nil {
		h.bufFree = append(h.bufFree, pf.opBuf[:0])
		pf.opBuf = nil
	}
	if err != nil {
		return err
	}
	return pf.complete()
}

// persistOps sends the buffered op records ahead of the commit flush
// (§4.3: persisting an operation log is a single RDMA write): the batched
// modes' per-operation persist, ahead of the batched memory logs that may
// point into it. On a pipelined connection the record is posted and its
// round trip overlaps with the remainder of the operation (gather,
// compute, memory-log appends); EndOp settles it. Without ring the posted
// record waits in the send queue for the next doorbell — the operation's
// first fabric access, or its commit. The buffer's ownership moves to the
// posted WR until it settles.
func (h *Handle) persistOps(ring bool) error {
	if h.opBufCnt == 0 {
		return nil
	}
	tr := h.c.fe.tr
	tr.BeginArg(trace.KindOpLogFlush, uint64(len(h.opBuf)))
	defer tr.End()
	if err := h.waitOpSpace(); err != nil {
		return err
	}
	if !h.c.pipelined() {
		h.vec = appendAreaOps(h.vec[:0], h.opArea, h.opBufAbs, h.opBuf)
		if err := h.c.epWriteV(h.vec); err != nil {
			return err
		}
		h.opBuf = h.opBuf[:0]
		h.opBufCnt = 0
		h.c.kick()
		return nil
	}
	// The vector outlives this call (kept for the settle's re-issue), so
	// it cannot live in the shared scratch: like the op buffer it belongs to
	// the in-flight WR until that settles, and comes back through opsFree.
	var ops []rdma.WriteOp
	if n := len(h.opsFree); n > 0 {
		ops, h.opsFree = h.opsFree[n-1], h.opsFree[:n-1]
	}
	ops = appendAreaOps(ops, h.opArea, h.opBufAbs, h.opBuf)
	tok := h.c.ep.PostWriteV(ops)
	if ring {
		h.c.ep.Doorbell()
	}
	h.asyncOps = append(h.asyncOps, asyncOpFlush{tok: tok, ops: ops, buf: h.opBuf})
	// The backing array belongs to the in-flight WR until settled (it
	// comes back through bufFree); continue gathering into a recycled one.
	h.opBuf = h.takeBuf()
	h.opBufCnt = 0
	h.c.kick()
	return nil
}

// takeBuf pops a recycled byte buffer (len 0) from the freelist.
func (h *Handle) takeBuf() []byte {
	if n := len(h.bufFree); n > 0 {
		b := h.bufFree[n-1]
		h.bufFree = h.bufFree[:n-1]
		return b
	}
	return nil
}

// settleAsyncOps waits out the posted op-record persists — all of them,
// or with all unset only those whose doorbell has been rung, leaving the
// queued ones to the next doorbell. A completion that carries a fault is
// re-driven synchronously through the retry/failover policy — re-writing
// the same log bytes at the same offsets is idempotent, exactly like the
// sync path's in-place retry.
func (h *Handle) settleAsyncOps(all bool) error {
	n := len(h.asyncOps)
	if !all {
		for n > 0 && !h.c.ep.Rung(h.asyncOps[n-1].tok) {
			n--
		}
	}
	if n == 0 {
		return nil
	}
	tr := h.c.fe.tr
	tr.BeginArg(trace.KindOpLogFlush, uint64(n))
	defer tr.End()
	var first error
	for _, af := range h.asyncOps[:n] {
		if err := h.c.ep.Wait(af.tok); err != nil && first == nil {
			h.c.fe.st.VerbRetries.Add(1)
			if first = h.c.epWriteV(af.ops); first == nil {
				h.c.kick()
			}
		}
		if af.buf != nil {
			h.bufFree = append(h.bufFree, af.buf[:0])
		}
		h.opsFree = append(h.opsFree, af.ops[:0])
	}
	h.asyncOps = h.asyncOps[:copy(h.asyncOps, h.asyncOps[n:])]
	return first
}

// finishTx is the post-commit bookkeeping of a durable rnvm_tx_write:
// advance the tail, mark the overlay units, wake the replayer, and run
// the amortized maintenance work.
func (h *Handle) finishTx(wireLen int) error {
	h.memTail += uint64(wireLen)
	h.c.fe.st.TxCommits.Add(1)
	h.c.fe.tuneCommit(h.c.fe.clk.Now() - h.commitT0)
	h.markFlushed()
	h.clearPending()
	h.undoLog = h.undoLog[:0]
	h.undoArena = h.undoArena[:0]
	h.opsInTx = 0
	h.flushCnt++
	h.c.kick()

	return h.maintain()
}

// maintain runs the amortized work that follows a commit: the overlay prune
// once more than pruneMarks marks wait, and the deferred frees. (The tail
// hints went out with the commit itself.)
func (h *Handle) maintain() error {
	var err error
	if len(h.marks) > pruneMarks {
		err = h.pruneOverlay()
	}
	h.releaseDueGC()
	h.gcTxStart = len(h.gcList)
	return err
}

// markFlushed hands the transaction's address list to a flush mark at the
// memory-log tail; the next transaction collects into the list of a mark the
// prune has retired.
func (h *Handle) markFlushed() {
	h.marks = append(h.marks, flushMark{endAbs: h.memTail, addrs: h.pendingAddrs})
	h.pendingAddrs = nil
	if n := len(h.addrFree); n > 0 {
		h.pendingAddrs, h.addrFree = h.addrFree[n-1], h.addrFree[:n-1]
	}
}

// clearPending empties the transaction buffers once their entries are
// encoded into a durable record or dropped; all three are reused (a flushed
// transaction's address list has moved to its mark: markFlushed).
func (h *Handle) clearPending() {
	h.pending = h.pending[:0]
	h.vals.Reset()
	h.pendingAddrs = h.pendingAddrs[:0]
}

// appendAreaOps appends to dst the (at most two) physically contiguous
// writes a logical append of wire at abs splits into across the circular
// boundary.
func appendAreaOps(dst []rdma.WriteOp, area logrec.Area, abs uint64, wire []byte) []rdma.WriteOp {
	pos := 0
	for _, r := range area.Split(abs, len(wire)) {
		dst = append(dst, rdma.WriteOp{Off: r.DevOff, Data: wire[pos : pos+r.Len]})
		pos += r.Len
	}
	return dst
}

// auxField reads one 8-byte aux-block word remotely.
func (h *Handle) auxField(fieldOff uint64) (uint64, error) {
	off, err := h.devOff(h.auxAddr)
	if err != nil {
		return 0, err
	}
	return h.c.epLoad64(off + fieldOff)
}

// auxFieldQuiet refreshes an aux word inside a poll loop without a new
// virtual-time charge (the episode's first probe was charged).
func (h *Handle) auxFieldQuiet(fieldOff uint64) (uint64, error) {
	off, err := h.devOff(h.auxAddr)
	if err != nil {
		return 0, err
	}
	return h.c.ep.Load64Quiet(off + fieldOff)
}

// waitMemSpace blocks (kicking the replayer) until the memory-log area
// has room for n more bytes — the natural back-pressure of the decoupled
// log design.
func (h *Handle) waitMemSpace(n int) error {
	for i := 0; ; i++ {
		if h.memTail-h.memTruncKnown+uint64(n) <= h.memArea.Size {
			return nil
		}
		var trunc uint64
		var err error
		if i == 0 {
			trunc, err = h.auxField(backend.AuxMemTruncOff)
		} else {
			trunc, err = h.auxFieldQuiet(backend.AuxMemTruncOff)
		}
		if err != nil {
			return err
		}
		h.memTruncKnown = trunc
		if h.memTail-h.memTruncKnown+uint64(n) <= h.memArea.Size {
			return nil
		}
		if i > pollLimit {
			return fmt.Errorf("core: memory log area stuck full (tail=%d trunc=%d need=%d)", h.memTail, h.memTruncKnown, n)
		}
		h.c.kick()
		runtime.Gosched()
	}
}

// waitOpSpace blocks until the op-log area can take the buffered group.
// Coverage only advances with transaction flushes, so when the area is
// full the pending memory logs are flushed first.
func (h *Handle) waitOpSpace() error {
	n := uint64(len(h.opBuf))
	for i := 0; ; i++ {
		if h.opTail-h.opTruncKnown <= h.opArea.Size-min64(n, h.opArea.Size) {
			return nil
		}
		var trunc uint64
		var err error
		if i == 0 {
			trunc, err = h.auxField(backend.AuxOpTruncOff)
		} else {
			trunc, err = h.auxFieldQuiet(backend.AuxOpTruncOff)
		}
		if err != nil {
			return err
		}
		h.opTruncKnown = trunc
		if h.opTail-h.opTruncKnown <= h.opArea.Size-min64(n, h.opArea.Size) {
			return nil
		}
		if !h.inFlush && !h.hold2pc && len(h.pending) > 0 {
			h.inFlush = true
			_, err := h.commit(nil, false)
			h.inFlush = false
			if err != nil {
				return err
			}
			continue
		}
		if i > pollLimit {
			return fmt.Errorf("core: op log area stuck full (tail=%d trunc=%d)", h.opTail, h.opTruncKnown)
		}
		h.c.kick()
		runtime.Gosched()
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// pruneOverlay drops overlay units whose transactions the replayer has
// confirmed applied (one LPN read amortized over many flushes).
func (h *Handle) pruneOverlay() error {
	lpn, err := h.auxField(backend.AuxLPNOff)
	if err != nil {
		return err
	}
	h.lpnKnown = lpn
	keep := h.marks[:0]
	for _, m := range h.marks {
		if m.endAbs <= lpn {
			for _, a := range m.addrs {
				h.unref(a)
			}
			h.addrFree = append(h.addrFree, m.addrs[:0])
		} else {
			keep = append(keep, m)
		}
	}
	h.marks = keep
	return nil
}

// persistHints stores the tail positions a recovering writer starts its log
// scans at (§5.1's metadata), exactly and synchronously: the shared lock's
// release, whose next holder adopts them as the tails. The periodic persist
// is the last segment of every hintEvery-th commit vector instead (commit):
// neighbouring words of one line of the aux block, 16 bytes and no trip.
//
// Invariant: at every crash point a durable hint <= the durable valid tail
// of its log — recoverTails scans from max(LPN/OPN, hint), and above the
// tail it would resume appending past a hole. It holds because a vector's
// segments seal in posted order and a failed one flushes everything behind
// it, so the hint is durable only over a durable record, and because the op
// hint stops at opBufAbs while records wait unsent in the buffer
// (waitOpSpace's make-room flush sends the memory record alone, opTail
// already past them). A fault may still truncate the segment inside a word,
// mixing an old tail and a new: below the new one, on no record boundary —
// why recoverTails trusts only a hint a valid record starts at.
func (h *Handle) persistHints() {
	off, err := h.devOff(h.auxAddr)
	if err != nil {
		return
	}
	_ = h.c.epStore64(off+backend.AuxMemTailOff, h.memTail)
	_ = h.c.epStore64(off+backend.AuxOpTailOff, h.opTail)
}

// resyncShared adopts the durable log tails left by the previous holder
// of a shared (striped) writer lock. The shared release protocol drains
// and then persists exact tail hints, so between a release and the next
// acquisition the hints equal the true tails; tails only grow, so max()
// also covers the case where this handle itself was the last holder.
// State cached before the acquisition may predate another front-end's
// writes and is dropped: the overlay (empty since our own last release's
// drain, but cleared for safety) and the per-structure cache tag.
func (h *Handle) resyncShared() error {
	off, err := h.devOff(h.auxAddr)
	if err != nil {
		return err
	}
	mt, err := h.c.epLoad64(off + backend.AuxMemTailOff)
	if err != nil {
		return err
	}
	ot, err := h.c.epLoad64(off + backend.AuxOpTailOff)
	if err != nil {
		return err
	}
	if mt > h.memTail {
		h.memTail = mt
	}
	if ot > h.opTail {
		h.opTail = ot
	}
	if h.coveredOp < h.opTail {
		h.coveredOp = h.opTail
	}
	h.dropOverlay()
	if h.c.fe.cache != nil {
		h.c.fe.cache.InvalidateTag(h.tag)
	}
	return nil
}

// DelayedFree schedules an old-version allocation for the lazy garbage
// collection of §6.2: the space returns to the allocator only after
// gcDelayFlushes more transaction flushes, long after any reader that
// could still hold the old root has finished.
func (h *Handle) DelayedFree(addr uint64, size int) {
	if h.rootCAS {
		// Multi-writer MV mode: replaced nodes may still be reachable from
		// roots published by other front-ends, and there is no cross-
		// front-end GC coordination — old versions are leaked, not
		// reclaimed. The leak is what keeps every concurrently cached node
		// immutable (addresses are never reused).
		return
	}
	h.gcList = append(h.gcList, gcItem{addr: addr, size: size, after: h.flushCnt + gcDelayFlushes, bornAt: time.Now()})
}

func (h *Handle) releaseDueGC() {
	n := 0
	now := time.Now()
	for _, g := range h.gcList {
		if g.after <= h.flushCnt && now.Sub(g.bornAt) >= gcMinAge {
			_ = h.c.Release(g.addr, g.size)
		} else {
			h.gcList[n] = g
			n++
		}
	}
	h.gcList = h.gcList[:n]
}

// abortOverlay drops the current window's overlay references and then
// replays the undo log in reverse, so units still referenced by earlier
// flush marks revert to their pre-window bytes instead of keeping the
// aborted values as authoritative.
func (h *Handle) abortOverlay() {
	for _, a := range h.pendingAddrs {
		h.unref(a)
	}
	for i := len(h.undoLog) - 1; i >= 0; i-- {
		u := h.undoLog[i]
		if oe, ok := h.overlay[u.addr]; ok {
			oe.data = append(oe.data[:0], h.undoArena[u.off:u.off+u.len]...)
		}
	}
	h.undoLog = h.undoLog[:0]
	h.undoArena = h.undoArena[:0]
}

// Abort is the §4.3 back-end-failure path on the client: the in-flight
// transaction (buffered memory logs, un-flushed op logs, overlay units it
// created) is dropped and the DRAM cache is cleared; the caller re-runs
// its operation against the recovered or promoted back-end. Acknowledged
// operations are unaffected — they are already durable in NVM.
func (h *Handle) Abort() {
	// Posted op-log flushes are past their issue point; settle them so
	// the completion queue drains (best effort — the back-end is being
	// failed over anyway, and the records sit below the rewound tail or
	// will be re-covered after recovery).
	_ = h.settleAsyncOps(true)
	h.abortOverlay()
	h.clearPending()
	h.ovFree, h.addrFree = sizedFree[ovEntry]{}, nil
	if h.opBufCnt > 0 {
		// Rewind over the never-persisted buffered op records only;
		// already-flushed records are durable and stay.
		h.opTail = h.opBufAbs
	}
	h.opBuf = h.opBuf[:0]
	h.opBufCnt = 0
	h.opsInTx = 0
	h.grouped = false
	if h.coveredOp > h.opTail {
		h.coveredOp = h.opTail
	}
	// The rolled-back operations' DelayedFrees target nodes the abort
	// keeps live (the old versions they would have replaced): un-schedule
	// them or the lazy GC would hand live nodes back to the allocator.
	if h.gcTxStart <= len(h.gcList) {
		h.gcList = h.gcList[:h.gcTxStart]
	}
	if h.c.fe.cache != nil {
		h.c.fe.cache.Clear()
	}
}

// Drain flushes everything and waits until the replayer has applied the
// full log — the persistent fence of §4.1: reads after it see only
// persisted, applied state.
func (h *Handle) Drain() error {
	if !h.writer || !h.c.fe.mode.OpLog {
		return nil
	}
	if err := h.Flush(); err != nil {
		return err
	}
	if err := h.waitReplayed(false); err != nil {
		return err
	}
	// Everything applied; the overlay is no longer needed.
	h.dropOverlay()
	return nil
}

// waitReplayed polls the back-end's LPN until the replayer has applied the
// whole memory log. The episode's first probe is a charged fabric read
// unless quiet; the refreshes never are.
func (h *Handle) waitReplayed(quiet bool) error {
	for i := 0; ; i++ {
		var lpn uint64
		var err error
		if i == 0 && !quiet {
			lpn, err = h.auxField(backend.AuxLPNOff)
		} else {
			lpn, err = h.auxFieldQuiet(backend.AuxLPNOff)
		}
		if err != nil {
			return err
		}
		h.lpnKnown = lpn
		if lpn >= h.memTail {
			return nil
		}
		if i > pollLimit {
			return fmt.Errorf("core: drain stuck (tail=%d lpn=%d)", h.memTail, lpn)
		}
		h.c.kick()
		runtime.Gosched()
	}
}

// VerifyOverlay checks the invariant ranged logging rests on — the overlay
// is the whole unit, the log is the diff: it flushes, waits for the
// replayer without charging the wait, and compares every overlay unit with
// the bytes NVM now holds. A WriteRanges caller that left a changed byte
// out of its dirty ranges fails here, naming the unit and the byte. It is
// a test hook — the wait and the comparison reads are uncharged, the
// overlay is left as it is — and no production path calls it.
func (h *Handle) VerifyOverlay() error {
	if !h.writer || !h.c.fe.mode.OpLog {
		return nil
	}
	if err := h.Flush(); err != nil {
		return err
	}
	if err := h.waitReplayed(true); err != nil {
		return err
	}
	var nvm []byte
	for addr, oe := range h.overlay {
		off, err := h.devOff(addr)
		if err != nil {
			return err
		}
		nvm = append(nvm[:0], oe.data...)
		if err := h.c.ep.ReadQuiet(off, nvm); err != nil {
			return err
		}
		for i := range nvm {
			if nvm[i] != oe.data[i] {
				return fmt.Errorf("core: overlay unit %#x (%d bytes) differs from replayed NVM at byte %d: a dirty byte outside the logged ranges", addr, len(nvm), i)
			}
		}
	}
	return nil
}

// Alloc allocates NVM for a node through the two-tier allocator.
func (h *Handle) Alloc(size int) (uint64, error) { return h.c.Alloc(size) }

// Free releases a node allocation immediately (single-version structures
// whose readers are excluded by the seqlock).
func (h *Handle) Free(addr uint64, size int) error { return h.c.Release(addr, size) }

// --- root pointer access ---

// ReadRoot returns the structure's root pointer using the handle's role:
// the writer reads its own overlay/cache view, lock-based readers go
// through the epoch-validated cache, and multi-version readers fetch the
// root *and* the adjacent sequence number with one read — the SN becomes
// the cache epoch for the traversal, so entries cached before any later
// applied transaction (including ones whose node addresses the lazy GC
// reused) cannot be served stale.
func (h *Handle) ReadRoot() (uint64, error) {
	if h.rootCAS && h.writer {
		// Multi-writer mode: the shared root lives in another slot and is
		// moved by concurrent front-ends, so it is always loaded from NVM,
		// never from the overlay or cache. The loaded value is remembered
		// as the CAS expectation for this operation's WriteRoot.
		v, err := h.c.epLoad64(h.c.layout.RootOff(h.rootCASSlot))
		if err != nil {
			return 0, err
		}
		h.rootSeen = v
		return v, nil
	}
	if h.mv && !h.writer {
		// Root (+0) and SN (+16) live side by side in the naming entry;
		// one 24-byte read returns a consistent pair.
		off, err := h.devOff(h.RootAddr())
		if err != nil {
			return 0, err
		}
		buf := h.rootBuf[:]
		if err := h.c.epRead(off, buf); err != nil {
			return 0, err
		}
		h.curSN = le64(buf[16:])
		return le64(buf), nil
	}
	b, err := h.ReadInto(h.RootAddr(), h.rootBuf[:8], true)
	if err != nil {
		return 0, err
	}
	return le64(b), nil
}

// WriteRoot updates the root pointer through the log path (or in place,
// in naive mode), so replay and mirrors both see it.
func (h *Handle) WriteRoot(v uint64) error {
	if h.rootCAS && h.writer {
		// Publication point of the lock-free multi-writer path: drain the
		// carrying logs first — readers fetch node bytes from NVM, so the
		// new version must be fully applied before the root can flip to
		// it — then install the root with CAS against the value this
		// operation's traversal started from. A lost race surfaces as
		// ErrRootConflict and the caller re-executes with backoff.
		if err := h.Flush(); err != nil {
			return err
		}
		if err := h.Drain(); err != nil {
			return err
		}
		_, ok, err := h.c.epCAS(h.c.layout.RootOff(h.rootCASSlot), h.rootSeen, v)
		if err != nil {
			return err
		}
		if !ok {
			h.c.fe.st.CASRetries.Add(1)
			return ErrRootConflict
		}
		h.rootSeen = v
		return nil
	}
	var b [8]byte
	putLE64(b[:], v)
	return h.Write(h.RootAddr(), b[:])
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
