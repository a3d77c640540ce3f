// Two-phase-commit hold state for the replayer (§7.2 extended). A
// participant's log scan buffers PrepareRecords without applying them;
// a KindApply/KindAbort CommitRecord resolves the buffered body. The
// coordinator's log scan remembers un-Ended KindCommit records so a
// participant's recovery can consult them. Both kinds of unresolved
// state pin a hold floor: durable cursors, truncation points and
// checkpoints never advance past the oldest unresolved record, so a
// restart always rescans it — prepared-but-unapplied state stays out
// of checkpoints until the transaction's fate is known.
package backend

import (
	"encoding/binary"
	"errors"
	"fmt"

	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
	"asymnvm/internal/trace"
)

// errApply marks device/apply failures inside the 2PC scan handlers so
// replaySlot can tell them from the benign decode errors that signal
// the end of the valid log.
var errApply = errors.New("backend: 2pc apply failure")

// TxOutcome is a TxResolver's verdict for an in-doubt transaction.
type TxOutcome int

const (
	// TxUnknown means the coordinator could not be consulted (node down,
	// no resolver wired): the prepare stays held and pins the floor.
	TxUnknown TxOutcome = iota
	// TxCommitted means the coordinator log holds a commit record.
	TxCommitted
	// TxAborted means the coordinator log was reachable and holds no
	// commit record for the transaction — presumed abort.
	TxAborted
)

// TxResolver consults the coordinator structure's log for the fate of
// an in-doubt prepared transaction. The cluster wires a device-scan
// resolver; a nil resolver leaves every in-doubt prepare held.
type TxResolver func(coordNode, coordSlot uint16, txid uint64) TxOutcome

// heldPrepare is one buffered prepare: a deep copy of the record (the
// scan buffer is reused) plus its log extent.
type heldPrepare struct {
	rec logrec.PrepareRecord
	abs uint64 // record start offset
	end uint64 // offset just past the record
}

// holdFloor returns the lowest log offset pinned by 2PC state: the
// start of the oldest unresolved prepare (participant side) or
// un-Ended commit record (coordinator side).
func (ds *dsReplay) holdFloor() (uint64, bool) {
	ds.twopcMu.Lock()
	defer ds.twopcMu.Unlock()
	var floor uint64
	ok := false
	for _, hp := range ds.prep {
		if !ok || hp.abs < floor {
			floor, ok = hp.abs, true
		}
	}
	for _, abs := range ds.commits {
		if !ok || abs < floor {
			floor, ok = abs, true
		}
	}
	return floor, ok
}

// dropPrepare removes one resolved prepare from the hold set.
func (b *Backend) dropPrepare(ds *dsReplay, txid uint64) {
	ds.twopcMu.Lock()
	delete(ds.prep, txid)
	for i, id := range ds.prepOrder {
		if id == txid {
			ds.prepOrder = append(ds.prepOrder[:i], ds.prepOrder[i+1:]...)
			break
		}
	}
	ds.twopcMu.Unlock()
}

// replayPrepare buffers one prepare record without applying it. The
// copy is deep — it must outlive the scan buffer until a decision
// record (or recovery consultation) resolves it. The raw extent is
// replicated first so a promoted mirror re-discovers the same in-doubt
// state from its own log copy.
func (b *Backend) replayPrepare(ds *dsReplay, src []byte, abs uint64) (int, error) {
	hp := &heldPrepare{}
	used, err := logrec.DecodePrepareInto(&hp.rec, src, abs, nil)
	if err != nil {
		return 0, err
	}
	hp.abs = abs
	hp.end = abs + uint64(used)
	if err := b.forwardMemRecord(ds, abs, used, hp.rec.CoverOp); err != nil {
		return 0, fmt.Errorf("%w: %w", errApply, err)
	}
	ds.twopcMu.Lock()
	if ds.prep == nil {
		ds.prep = make(map[uint64]*heldPrepare)
	}
	if _, dup := ds.prep[hp.rec.TxID]; !dup {
		ds.prep[hp.rec.TxID] = hp
		ds.prepOrder = append(ds.prepOrder, hp.rec.TxID)
	}
	ds.twopcMu.Unlock()
	// Advance the durable cursor up to (not past — the hold floor clamps
	// there) the record's start, so a recovering writer's wait-for-LPN
	// can reach its clamp target.
	if err := b.persistCursors(ds, abs, ds.opn.Load()); err != nil {
		return 0, fmt.Errorf("%w: %w", errApply, err)
	}
	return used, nil
}

// replayDecision processes one CommitRecord from the log scan:
// coordinator kinds maintain the un-Ended commit set, participant kinds
// resolve a buffered prepare. Cursor persistence after a resolution is
// clamped by the (now smaller) hold floor, so an applied prepare's
// bytes finally become truncatable.
func (b *Backend) replayDecision(ds *dsReplay, src []byte, abs uint64) (int, error) {
	rec := &b.cmtScratch
	used, err := logrec.DecodeCommitInto(rec, src, abs)
	if err != nil {
		return 0, err
	}
	if err := b.forwardMemRecord(ds, abs, used, rec.CoverOp); err != nil {
		return 0, fmt.Errorf("%w: %w", errApply, err)
	}
	end := abs + uint64(used)
	switch rec.Kind {
	case logrec.KindCommit:
		ds.twopcMu.Lock()
		if ds.commits == nil {
			ds.commits = make(map[uint64]uint64)
		}
		ds.commits[rec.TxID] = abs
		ds.twopcMu.Unlock()
		// As with a buffered prepare: bring the durable cursor up to the
		// record's start (the hold floor pins it there).
		if err := b.persistCursors(ds, abs, ds.opn.Load()); err != nil {
			return 0, fmt.Errorf("%w: %w", errApply, err)
		}
	case logrec.KindEnd:
		ds.twopcMu.Lock()
		delete(ds.commits, rec.TxID)
		ds.twopcMu.Unlock()
		if err := b.persistCursors(ds, end, ds.opn.Load()); err != nil {
			return 0, fmt.Errorf("%w: %w", errApply, err)
		}
	case logrec.KindApply, logrec.KindAbort:
		ds.twopcMu.Lock()
		hp := ds.prep[rec.TxID]
		ds.twopcMu.Unlock()
		if hp == nil {
			// Already resolved in an earlier incarnation; blind re-scan.
			return used, nil
		}
		b.dropPrepare(ds, rec.TxID)
		cover := max(ds.opn.Load(), hp.rec.CoverOp, rec.CoverOp)
		if rec.Kind == logrec.KindApply {
			if err := b.applyPrepared(ds, hp, end, cover); err != nil {
				return 0, fmt.Errorf("%w: %w", errApply, err)
			}
		} else {
			// Presumed abort: discard the body and ledger the prepared
			// pages — the next checkpoint scrubs them. The cover advance
			// retires the aborted transaction's op-log records so they are
			// never handed back for re-execution.
			ds.memRec.Add(hp.abs, hp.end-hp.abs)
			ds.opn.Store(cover)
			if err := b.persistCursors(ds, end, cover); err != nil {
				return 0, fmt.Errorf("%w: %w", errApply, err)
			}
		}
	}
	return used, nil
}

// applyPrepared applies a buffered prepare's entries — the deferred half
// of a committed cross-shard transaction — exactly as applyTx would
// have, then advances the cursors past newLPN (the resolving record's
// end).
func (b *Backend) applyPrepared(ds *dsReplay, hp *heldPrepare, newLPN, coverOp uint64) error {
	b.tr.BeginArg(trace.KindReplay, uint64(len(hp.rec.Entries)))
	defer b.tr.End()
	if err := b.applyEntries(ds, hp.rec.Entries); err != nil {
		return err
	}
	ds.opn.Store(coverOp)
	if err := b.persistCursors(ds, newLPN, coverOp); err != nil {
		return err
	}
	if b.inRecovery {
		b.st.RecoveryReplayOps.Add(1)
	}
	b.st.TxReplayed.Add(1)
	return nil
}

// resolveInDoubt is recovery's consultation pass: for every prepare the
// log scan left unresolved, ask the coordinator's log (§7.2 extended).
// A found commit record applies the buffered body; a reachable
// coordinator with no commit record means the transaction never reached
// its atomicity point — presumed abort, prepared pages to the reclaim
// ledger. An unreachable coordinator keeps the prepare held: cursors
// and checkpoints stay pinned below it until a later consultation.
// Returns the number of prepares still unresolved.
func (b *Backend) resolveInDoubt(ds *dsReplay) (int, error) {
	ds.twopcMu.Lock()
	order := append([]uint64(nil), ds.prepOrder...)
	ds.twopcMu.Unlock()
	unresolved := 0
	for _, txid := range order {
		ds.twopcMu.Lock()
		hp := ds.prep[txid]
		ds.twopcMu.Unlock()
		if hp == nil {
			continue
		}
		outcome := TxUnknown
		if b.resolver != nil {
			outcome = b.resolver(hp.rec.CoordNode, hp.rec.CoordSlot, txid)
		}
		switch outcome {
		case TxCommitted:
			b.dropPrepare(ds, txid)
			cover := max(ds.opn.Load(), hp.rec.CoverOp)
			if err := b.applyPrepared(ds, hp, ds.lpn.Load(), cover); err != nil {
				return unresolved, err
			}
			b.st.InDoubtResolved.Add(1)
		case TxAborted:
			b.dropPrepare(ds, txid)
			ds.memRec.Add(hp.abs, hp.end-hp.abs)
			cover := max(ds.opn.Load(), hp.rec.CoverOp)
			ds.opn.Store(cover)
			if err := b.persistCursors(ds, ds.lpn.Load(), cover); err != nil {
				return unresolved, err
			}
			b.st.InDoubtResolved.Add(1)
		default:
			unresolved++
		}
	}
	return unresolved, nil
}

// ScanTxOutcome is the consultation primitive behind a device-scan
// TxResolver: it reads the coordinator structure's memory log straight
// off its NVM device and reports whether a KindCommit record for txid
// survives. The scan starts at the durable LPN — the coordinator's hold
// floor guarantees un-Ended commit records sit at or above it — so a
// clean scan that finds nothing means the transaction never reached its
// atomicity point: presumed abort. Errors (unformatted device, missing
// slot) mean the coordinator could not actually be consulted.
func ScanTxOutcome(dev *nvm.Device, coordSlot uint16, txid uint64) (TxOutcome, error) {
	layout, err := ReadLayout(dev)
	if err != nil {
		return TxUnknown, err
	}
	if uint64(coordSlot) >= layout.NameEntries {
		return TxUnknown, fmt.Errorf("backend: coordinator slot %d out of range", coordSlot)
	}
	var word [8]byte
	if err := dev.ReadAt(layout.AuxPtrOff(coordSlot), word[:]); err != nil {
		return TxUnknown, err
	}
	auxAddr := binary.LittleEndian.Uint64(word[:])
	if auxAddr == 0 {
		return TxUnknown, fmt.Errorf("backend: coordinator slot %d has no structure", coordSlot)
	}
	auxOff := AddrOff(auxAddr)
	aux := make([]byte, AuxUser)
	if err := dev.ReadAt(auxOff, aux); err != nil {
		return TxUnknown, err
	}
	area := logrec.Area{
		Base: binary.LittleEndian.Uint64(aux[AuxMemLogBaseOff:]),
		Size: binary.LittleEndian.Uint64(aux[AuxMemLogSizeOff:]),
	}
	abs := binary.LittleEndian.Uint64(aux[AuxLPNOff:])
	committed := false
	for {
		rec, used, err := scanCommitRecord(dev, area, abs)
		if err != nil {
			break // end of valid log (or torn tail): scan is done
		}
		if rec != nil && rec.TxID == txid && rec.Kind == logrec.KindCommit {
			committed = true
		}
		abs += uint64(used)
	}
	if committed {
		return TxCommitted, nil
	}
	return TxAborted, nil
}

// scanCommitRecord decodes one record at abs, returning the CommitRecord
// when it is one (nil for other record kinds, which are just skipped).
func scanCommitRecord(dev *nvm.Device, area logrec.Area, abs uint64) (*logrec.CommitRecord, int, error) {
	chunk := 512
	for {
		if uint64(chunk) > area.Size {
			chunk = int(area.Size)
		}
		buf := make([]byte, chunk)
		pos := 0
		for _, r := range area.Split(abs, chunk) {
			if err := dev.ReadAt(r.DevOff, buf[pos:pos+r.Len]); err != nil {
				return nil, 0, err
			}
			pos += r.Len
		}
		if len(buf) == 0 {
			return nil, 0, logrec.ErrShort
		}
		var rec *logrec.CommitRecord
		var used int
		var derr error
		switch buf[0] {
		case logrec.CommitMagic:
			var cr logrec.CommitRecord
			used, derr = logrec.DecodeCommitInto(&cr, buf, abs)
			rec = &cr
		case logrec.PrepareMagic:
			var pr logrec.PrepareRecord
			used, derr = logrec.DecodePrepareInto(&pr, buf, abs, nil)
		default:
			_, used, derr = logrec.DecodeTx(buf, abs)
		}
		if derr == nil {
			return rec, used, nil
		}
		if errors.Is(derr, logrec.ErrShort) && chunk < maxTxChunk && uint64(chunk) < area.Size {
			chunk *= 2
			continue
		}
		return nil, 0, derr
	}
}

// InDoubt returns the transaction ids of prepares buffered without a
// resolution for one slot, in log order.
func (b *Backend) InDoubt(slot uint16) ([]uint64, error) {
	b.mu.Lock()
	ds, ok := b.dss[slot]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown slot %d", slot)
	}
	ds.twopcMu.Lock()
	defer ds.twopcMu.Unlock()
	return append([]uint64(nil), ds.prepOrder...), nil
}

// PendingCommits returns the transaction ids of coordinator commit
// records not yet forgotten by a KindEnd, in unspecified order.
func (b *Backend) PendingCommits(slot uint16) ([]uint64, error) {
	b.mu.Lock()
	ds, ok := b.dss[slot]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown slot %d", slot)
	}
	ds.twopcMu.Lock()
	defer ds.twopcMu.Unlock()
	out := make([]uint64, 0, len(ds.commits))
	for txid := range ds.commits {
		out = append(out, txid)
	}
	return out, nil
}

// ReclaimPending reports the bytes a structure's reclaim ledger holds
// for the next checkpoint scrub. Crash tests model-check presumed abort
// against it: an aborted prepare's log span must land here (and nowhere
// else), so prepared pages are never leaked.
func (b *Backend) ReclaimPending(slot uint16) (mem, op uint64, err error) {
	b.mu.Lock()
	ds, ok := b.dss[slot]
	b.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("backend: unknown slot %d", slot)
	}
	return ds.memRec.PendingBytes(), ds.opRec.PendingBytes(), nil
}
