// Cross-shard transactions: a two-phase-commit plane layered on the
// existing per-structure op/memory logs. Phase one appends a
// PrepareRecord to every participant's memory log (the buffered entries
// travel inside it, unapplied); the single atomicity point is the
// KindCommit record on the coordinator structure's log; phase two fans
// out KindApply decisions that release the buffered bodies. Recovery is
// presumed abort: a prepare with no decision consults the coordinator's
// log, and a missing commit record means abort (backend/twopc.go holds
// the participant side; RecoverTx below is the front-end half).
//
// Round-trip budget per cross-shard commit, pipelined mode:
//
//	1 × prepare doorbell per participant link (concurrent: max, not sum)
//	1 × coordinator doorbell (KindEnd of the previous transaction
//	    piggybacked with this one's KindCommit)
//	1 × decision doorbell per participant link (concurrent)
//
// — two doorbell round trips over a single-shard batch flush.
package core

import (
	"errors"
	"fmt"

	"asymnvm/internal/backend"
	"asymnvm/internal/logrec"
	"asymnvm/internal/rdma"
)

// TxCoordType tags the coordinator's naming-table entry; the structure
// body is just the aux block and a memory log of CommitRecords.
const TxCoordType uint8 = 0x2C

// txidHWOff is the coordinator's private aux word: the durable
// high-water mark of reserved transaction-id blocks. Ids below it may
// have been handed out by a previous incarnation and are never reused.
const txidHWOff = backend.AuxUser

// txidBlock is how many ids one durable reservation covers; the Store64
// cost amortizes over the block.
const txidBlock = 64

// ErrTxFinished is returned when a finished Tx is committed or extended.
var ErrTxFinished = errors.New("core: cross-shard transaction already finished")

// TxCoordinator owns one coordinator structure: it mints transaction
// ids from durably reserved blocks and appends the commit/forget
// records that decide every cross-shard transaction's fate.
type TxCoordinator struct {
	h    *Handle
	base uint64 // node/slot tag in the txid high bits
	next uint64
	lim  uint64
	// lastTx is the newest committed transaction whose KindEnd is not
	// durable yet. The End rides the next commit's doorbell (or Quiesce),
	// and must never become durable before that transaction's decisions —
	// a forgotten commit record flips recovery's presumption to abort.
	lastTx uint64
}

// NewTxCoordinator opens (or creates) the named coordinator structure
// and seeds the transaction-id dispenser past every id a previous
// incarnation may have used.
func NewTxCoordinator(c *Conn, name string) (*TxCoordinator, error) {
	if !c.fe.mode.OpLog {
		return nil, errors.New("core: cross-shard transactions need the op-log mode")
	}
	h, err := c.Open(name, true)
	if errors.Is(err, ErrNotFound) {
		h, err = c.Create(name, TxCoordType, CreateOptions{MemLogSize: 1 << 20, OpLogSize: 8 << 10})
	}
	if err != nil {
		return nil, err
	}
	hw, err := h.auxField(txidHWOff)
	if err != nil {
		return nil, err
	}
	return &TxCoordinator{
		h:    h,
		base: uint64(c.backendID)<<48 | uint64(h.slot)<<32,
		next: hw,
		lim:  hw,
	}, nil
}

// Handle exposes the coordinator's underlying handle (tests, RecoverTx
// ordering with other recovery steps).
func (tc *TxCoordinator) Handle() *Handle { return tc.h }

// reserve durably claims the next id block when the current one is
// exhausted: the high-water word is persisted before any id from the
// block is used, so a crash can never reissue an id.
func (tc *TxCoordinator) reserve() error {
	if tc.next < tc.lim {
		return nil
	}
	hw := tc.next + txidBlock
	off, err := tc.h.devOff(tc.h.auxAddr)
	if err != nil {
		return err
	}
	if err := tc.h.c.epStore64(off+txidHWOff, hw); err != nil {
		return err
	}
	tc.lim = hw
	return nil
}

// Begin mints a transaction. Participant handles are enrolled with
// Enroll before running their operations.
func (tc *TxCoordinator) Begin() (*Tx, error) {
	if tc.next == 0 {
		tc.next = 1 // txid 0 is the "none" sentinel
	}
	if err := tc.reserve(); err != nil {
		return nil, err
	}
	txid := tc.base | tc.next
	tc.next++
	return &Tx{tc: tc, txid: txid, fe: tc.h.c.fe}, nil
}

// commitRecord appends the transaction's KindCommit — the atomicity
// point — together with the previous transaction's deferred KindEnd,
// under one doorbell.
func (tc *TxCoordinator) commitRecord(txid uint64) error {
	h := tc.h
	wire := h.txBuf[:0]
	abs := h.memTail
	if tc.lastTx != 0 {
		end := logrec.CommitRecord{Kind: logrec.KindEnd, DSSlot: h.slot, Abs: abs, TxID: tc.lastTx}
		wire = end.AppendTo(wire)
		abs += uint64(end.EncodedLen())
	}
	cr := logrec.CommitRecord{Kind: logrec.KindCommit, DSSlot: h.slot, Abs: abs, TxID: txid}
	wire = cr.AppendTo(wire)
	h.txBuf = wire
	if err := h.waitMemSpace(len(wire)); err != nil {
		return err
	}
	h.vec = appendAreaOps(h.vec[:0], h.memArea, h.memTail, wire)
	if err := h.c.epWriteV(h.vec); err != nil {
		return err
	}
	h.memTail += uint64(len(wire))
	tc.lastTx = txid
	h.c.kick()
	return nil
}

// Quiesce writes the deferred KindEnd (safe: Commit returns only after
// every decision is durable) and drains the coordinator log, releasing
// the back-end's hold floor. Run it before barriers that wait on full
// log application (DrainAll, conservation checks, shutdown).
func (tc *TxCoordinator) Quiesce() error {
	if tc.lastTx != 0 {
		if err := tc.h.appendCtl(logrec.KindEnd, tc.lastTx, 0); err != nil {
			return err
		}
		tc.lastTx = 0
	}
	return tc.h.Drain()
}

// RecoverTx is the front-end half of presumed-abort recovery, run by a
// new writer after reopening the coordinator and the participants: every
// participant prepare left without a decision is resolved against the
// coordinator's surviving commit records — found means KindApply,
// missing means the transaction never reached its atomicity point, so
// KindAbort. Only once every decision is durable are the commit records
// forgotten with KindEnd. It returns how many transactions resolved
// each way. Run it before any PendingOps-based re-execution: resolution
// advances the op-log cursor past the transactions it settles.
func (tc *TxCoordinator) RecoverTx(parts ...*Handle) (committed, aborted int, err error) {
	commitSet := make(map[uint64]bool, len(tc.h.unEnded))
	for _, txid := range tc.h.unEnded {
		commitSet[txid] = true
	}
	for _, p := range parts {
		var keep []logrec.PrepareRecord
		for _, prep := range p.inDoubt {
			if prep.CoordNode != tc.h.c.backendID || prep.CoordSlot != tc.h.slot {
				keep = append(keep, prep) // some other coordinator's
				continue
			}
			kind := byte(logrec.KindAbort)
			if commitSet[prep.TxID] {
				kind = logrec.KindApply
				committed++
			} else {
				aborted++
			}
			if err := p.appendCtl(kind, prep.TxID, prep.CoverOp); err != nil {
				return committed, aborted, err
			}
		}
		p.inDoubt = keep
	}
	// Decisions durable; the commit records can be forgotten.
	for txid := range commitSet {
		if err := tc.h.appendCtl(logrec.KindEnd, txid, 0); err != nil {
			return committed, aborted, err
		}
	}
	tc.h.unEnded = nil
	if tc.lastTx != 0 && commitSet[tc.lastTx] {
		tc.lastTx = 0
	}
	return committed, aborted, nil
}

// Tx is one cross-shard transaction: participant handles enroll, run
// their operations (buffered, invisible to readers), and Commit drives
// the two phases.
type Tx struct {
	tc    *TxCoordinator
	txid  uint64
	fe    *Frontend
	parts []*Handle
	done  bool
}

// TxID returns the minted transaction id.
func (tx *Tx) TxID() uint64 { return tx.txid }

// Enroll adds a participant handle (idempotent). While enrolled, the
// handle's batch-quota flushes and immediate op-log persists are
// suppressed: everything buffers until the prepare.
func (tx *Tx) Enroll(hs ...*Handle) error {
	if tx.done {
		return ErrTxFinished
	}
	for _, h := range hs {
		already := false
		for _, p := range tx.parts {
			if p == h {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if !h.writer {
			return ErrNotWriter
		}
		h.hold2pc = true
		tx.parts = append(tx.parts, h)
	}
	return nil
}

// Abort rolls the transaction back before its atomicity point: nothing
// was prepared (prepares only happen inside Commit), so the rollback is
// purely front-end local.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	for _, p := range tx.parts {
		p.Abort()
	}
	tx.release()
	tx.fe.st.TxCrossAborts.Add(1)
}

// release clears the enrollment hold on every participant.
func (tx *Tx) release() {
	for _, p := range tx.parts {
		p.hold2pc = false
	}
}

// Commit drives both phases. An error before the commit record means
// the transaction aborted (durably, via KindAbort decisions where a
// prepare may be in flight — recovery presumes abort for any it
// misses); an error after it means the transaction committed but some
// decision could not be delivered, and the participant's back-end will
// resolve it from the coordinator's log on its next recovery.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxFinished
	}
	tx.done = true
	fe := tx.fe

	var active []*Handle
	for _, p := range tx.parts {
		if len(p.pending) > 0 || p.opBufCnt > 0 {
			active = append(active, p)
		}
	}
	if len(active) == 0 {
		tx.release()
		return nil
	}
	// Deadline-aware: past the budget nothing durable has happened yet,
	// so the cheap local abort is still available.
	if left, ok := fe.DeadlineLeft(); ok && left <= 0 {
		for _, p := range tx.parts {
			p.Abort()
		}
		tx.release()
		fe.st.TxCrossAborts.Add(1)
		return fmt.Errorf("core: cross-shard commit: %w", ErrDeadlineExceeded)
	}

	conns := make([]*Conn, 0, len(active)+1)
	for _, p := range active {
		conns = append(conns, p.c)
	}
	conns = append(conns, tx.tc.h.c)
	f := fe.BeginFanout(conns...)
	defer f.End()

	// Phase one: every participant's op group and prepare record posted
	// under its own doorbell, all links in flight together.
	pends := make([]*PendingFlush, 0, len(active))
	var prepErr error
	for _, p := range active {
		pp, err := p.prepareAsync(tx.txid, tx.tc.h.c.backendID, tx.tc.h.slot)
		if err != nil {
			prepErr = err
			break
		}
		pends = append(pends, pp)
	}
	for _, pp := range pends {
		if err := pp.Settle(); err != nil && prepErr == nil {
			prepErr = err
		}
	}
	if prepErr == nil {
		// Last exit before the no-return point.
		if left, ok := fe.DeadlineLeft(); ok && left <= 0 {
			prepErr = ErrDeadlineExceeded
		}
	}
	if prepErr != nil {
		tx.abortPrepared(active, len(pends))
		return fmt.Errorf("core: cross-shard prepare: %w", prepErr)
	}

	// Atomicity point: the commit record (plus the previous transaction's
	// End) under one coordinator doorbell.
	if err := tx.tc.commitRecord(tx.txid); err != nil {
		// The record's durability is unknown — aborting now could
		// contradict it, so leave the prepares in doubt for recovery.
		for _, p := range tx.parts {
			p.Abort()
		}
		tx.release()
		return fmt.Errorf("core: cross-shard commit record: %w", err)
	}
	// Committed. The deadline no longer applies: decisions must go out.
	if _, ok := fe.DeadlineLeft(); ok {
		fe.ClearDeadline()
	}

	// Phase two: KindApply decisions, all links in flight together.
	ctls := make([]*pendingCtl, 0, len(active))
	var decErr error
	for _, p := range active {
		pc, err := p.postCtl(logrec.KindApply, tx.txid, p.coveredOp)
		if err != nil {
			if decErr == nil {
				decErr = err
			}
			continue
		}
		ctls = append(ctls, pc)
	}
	for _, pc := range ctls {
		if err := pc.settle(); err != nil && decErr == nil {
			decErr = err
		}
	}
	for _, p := range active {
		p.finish2PC(false)
	}
	tx.release()
	fe.st.TxCrossCommits.Add(1)
	if decErr != nil {
		return fmt.Errorf("core: cross-shard decision: %w", decErr)
	}
	return nil
}

// abortPrepared durably aborts after phase one failed: participants
// whose prepare was posted get a KindAbort decision (best effort —
// recovery presumes abort for any that miss it), the rest roll back
// locally.
func (tx *Tx) abortPrepared(active []*Handle, posted int) {
	for i, p := range active {
		if i < posted {
			_ = p.appendCtl(logrec.KindAbort, tx.txid, p.coveredOp)
			p.finish2PC(true)
		} else {
			p.Abort()
		}
	}
	tx.release()
	tx.fe.st.TxCrossAborts.Add(1)
}

// prepareAsync is phase one on one participant: a commit flush whose
// record is a PrepareRecord — the buffered entries travel inside it,
// unapplied, behind the participant's op group under the same doorbell.
// The tail advances past the record when the flush completes.
func (h *Handle) prepareAsync(txid uint64, coordNode, coordSlot uint16) (*PendingFlush, error) {
	pf, err := h.commit(&prepareHdr{txid: txid, coordNode: coordNode, coordSlot: coordSlot}, true)
	if err != nil {
		return nil, err
	}
	h.c.fe.st.TxPrepares.Add(1)
	return &pf, nil
}

// pendingCtl is one posted-but-unsettled control (decision) record.
type pendingCtl struct {
	h     *Handle
	tok   rdma.Token
	group []rdma.WriteOp
	n     int
	done  bool
}

// postCtl appends one CommitRecord to the handle's memory log under its
// own doorbell without waiting for the completion.
func (h *Handle) postCtl(kind byte, txid, coverOp uint64) (*pendingCtl, error) {
	rec := logrec.CommitRecord{Kind: kind, DSSlot: h.slot, Abs: h.memTail, TxID: txid, CoverOp: coverOp}
	wire := rec.AppendTo(h.txBuf[:0])
	h.txBuf = wire
	if err := h.waitMemSpace(len(wire)); err != nil {
		return nil, err
	}
	// The group outlives this call (kept for settle's re-issue), so it
	// cannot live in the handle's shared scratch.
	group := appendAreaOps(nil, h.memArea, h.memTail, wire)
	pc := &pendingCtl{h: h, group: group, n: len(wire)}
	if h.c.pipelined() {
		pc.tok = h.c.ep.PostWriteV(group)
		h.c.ep.Doorbell()
	} else {
		if err := h.c.epWriteV(group); err != nil {
			return nil, err
		}
		pc.done = true
		h.memTail += uint64(len(wire))
		h.c.kick()
	}
	return pc, nil
}

// settle waits the control record out and advances the tail.
func (pc *pendingCtl) settle() error {
	if pc.done {
		return nil
	}
	pc.done = true
	h := pc.h
	if err := h.c.ep.Wait(pc.tok); err != nil {
		h.c.fe.st.VerbRetries.Add(1)
		if err := h.c.epWriteV(pc.group); err != nil {
			return err
		}
	}
	h.memTail += uint64(pc.n)
	h.c.kick()
	return nil
}

// appendCtl is postCtl's synchronous form (recovery, aborts, Quiesce).
func (h *Handle) appendCtl(kind byte, txid, coverOp uint64) error {
	rec := logrec.CommitRecord{Kind: kind, DSSlot: h.slot, Abs: h.memTail, TxID: txid, CoverOp: coverOp}
	wire := rec.AppendTo(h.txBuf[:0])
	h.txBuf = wire
	if err := h.waitMemSpace(len(wire)); err != nil {
		return err
	}
	h.vec = appendAreaOps(h.vec[:0], h.memArea, h.memTail, wire)
	if err := h.c.epWriteV(h.vec); err != nil {
		return err
	}
	h.memTail += uint64(len(wire))
	h.c.kick()
	return nil
}

// finish2PC is the participant's post-decision bookkeeping. On commit
// the buffered entries get a flush mark at the decision's end (the
// replayer confirms application past it); on abort the overlay and
// cache drop the uncommitted values, exactly as Abort does.
func (h *Handle) finish2PC(aborted bool) {
	if aborted {
		h.abortOverlay()
		// Un-schedule the aborted operations' DelayedFrees: their
		// targets (the old versions they would have replaced) stay live.
		if h.gcTxStart <= len(h.gcList) {
			h.gcList = h.gcList[:h.gcTxStart]
		}
		if h.c.fe.cache != nil {
			h.c.fe.cache.Clear()
		}
	} else {
		h.markFlushed()
		h.undoLog = h.undoLog[:0]
		h.undoArena = h.undoArena[:0]
	}
	h.clearPending()
	h.opsInTx = 0
	h.flushCnt++
	h.hold2pc = false
	_ = h.maintain()
}
