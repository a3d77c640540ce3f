package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"asymnvm/internal/backend"
	"asymnvm/internal/logrec"
)

// ErrExists is returned when creating a name that is already registered.
var ErrExists = errors.New("core: structure already exists")

// ErrNotFound is returned when opening an unknown name.
var ErrNotFound = errors.New("core: structure not found")

// ErrMoved is returned when an operation's target partition migrated to
// another back-end while the operation was in flight and a transparent
// refresh did not converge (the map flipped again mid-retry). The caller
// re-resolves the versioned partition map and retries — the serving layer
// surfaces it as a retry-after hint.
var ErrMoved = errors.New("core: partition moved during operation")

// CreateOptions sizes a new structure's private log areas.
type CreateOptions struct {
	// MemLogSize is the memory-log area size (rounded up to blocks).
	MemLogSize uint64
	// OpLogSize is the operation-log area size (rounded up to blocks).
	OpLogSize uint64
}

// DefaultCreateOptions returns log-area sizes adequate for the benchmark
// workloads (batches up to 4096 operations in flight).
func DefaultCreateOptions() CreateOptions {
	return CreateOptions{MemLogSize: 8 << 20, OpLogSize: 2 << 20}
}

func (o *CreateOptions) fill() {
	if o.MemLogSize == 0 {
		o.MemLogSize = 8 << 20
	}
	if o.OpLogSize == 0 {
		o.OpLogSize = 2 << 20
	}
}

// Calloc allocates zero-filled back-end blocks.
func (c *Conn) Calloc(size uint64) (uint64, error) {
	resp, err := c.rpc(backend.RPCCalloc, size, 0)
	if err != nil {
		return 0, err
	}
	if resp.Status != backend.RPCOK {
		return 0, fmt.Errorf("core: calloc(%d) failed with status %d", size, resp.Status)
	}
	return resp.Result, nil
}

// readNameTable fetches the whole naming table with one RDMA read.
func (c *Conn) readNameTable() ([]byte, error) {
	buf := make([]byte, c.layout.NameEntries*backend.NameEntrySize)
	if err := c.epRead(c.layout.NameBase, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// findSlot looks a name up in a fetched table image.
func (c *Conn) findSlot(table []byte, name string) (uint16, backend.NameEntry, bool) {
	h := backend.HashName(name)
	for slot := uint16(0); uint64(slot) < c.layout.NameEntries; slot++ {
		raw := table[uint64(slot)*backend.NameEntrySize:][:backend.NameEntrySize]
		e, err := backend.DecodeNameEntry(raw)
		if err != nil || !e.Used {
			continue
		}
		if backend.HashName(e.Name) == h && e.Name == name {
			return slot, e, true
		}
	}
	return 0, backend.NameEntry{}, false
}

// Create registers a new structure: claim a naming slot with an RDMA CAS,
// allocate the aux block and the two log areas over the management RPC,
// initialize the aux metadata, and finally publish the aux pointer — the
// atomic commit point the back-end's discovery scan keys on.
func (c *Conn) Create(name string, typ uint8, opts CreateOptions) (*Handle, error) {
	opts.fill()
	if len(name) > 32 {
		return nil, backend.ErrNameTooLong
	}
	table, err := c.readNameTable()
	if err != nil {
		return nil, err
	}
	if _, _, found := c.findSlot(table, name); found {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Claim the first free slot: CAS the entry's first word from zero to
	// {used, type}.
	var slot uint16
	claimed := false
	for s := uint16(0); uint64(s) < c.layout.NameEntries; s++ {
		raw := table[uint64(s)*backend.NameEntrySize:][:backend.NameEntrySize]
		if raw[0]&1 != 0 {
			continue
		}
		word := uint64(1) | uint64(typ)<<8
		_, ok, err := c.epCAS(c.layout.NameEntryOff(s), 0, word)
		if err != nil {
			return nil, err
		}
		if ok {
			slot = s
			claimed = true
			break
		}
	}
	if !claimed {
		return nil, errors.New("core: naming table full")
	}
	// Fill in the rest of the entry (hash + name; root/lock/sn/aux zero).
	entry, err := backend.EncodeNameEntry(backend.NameEntry{Used: true, Type: typ, Name: name})
	if err != nil {
		return nil, err
	}
	// Preserve the claimed first word; write the remainder.
	if err := c.epWrite(c.layout.NameEntryOff(slot)+8, entry[8:]); err != nil {
		return nil, err
	}

	auxAddr, err := c.Calloc(backend.AuxSize)
	if err != nil {
		return nil, err
	}
	memAddr, err := c.Calloc(opts.MemLogSize)
	if err != nil {
		return nil, err
	}
	opAddr, err := c.Calloc(opts.OpLogSize)
	if err != nil {
		return nil, err
	}
	aux := make([]byte, backend.AuxUser)
	binary.LittleEndian.PutUint64(aux[backend.AuxMemLogBaseOff:], backend.AddrOff(memAddr))
	binary.LittleEndian.PutUint64(aux[backend.AuxMemLogSizeOff:], opts.MemLogSize)
	binary.LittleEndian.PutUint64(aux[backend.AuxOpLogBaseOff:], backend.AddrOff(opAddr))
	binary.LittleEndian.PutUint64(aux[backend.AuxOpLogSizeOff:], opts.OpLogSize)
	if err := c.epWrite(backend.AddrOff(auxAddr), aux); err != nil {
		return nil, err
	}
	// Publish: the aux pointer becomes visible atomically; the back-end's
	// next kick discovers the structure and starts replicating it.
	if err := c.epStore64(c.layout.AuxPtrOff(slot), auxAddr); err != nil {
		return nil, err
	}
	c.kick()

	return &Handle{
		c:       c,
		slot:    slot,
		typ:     typ,
		tag:     uint32(c.backendID)<<16 | uint32(slot),
		auxAddr: auxAddr,
		memArea: logrec.Area{Base: backend.AddrOff(memAddr), Size: opts.MemLogSize},
		opArea:  logrec.Area{Base: backend.AddrOff(opAddr), Size: opts.OpLogSize},
		writer:  true,
		overlay: make(map[uint64]*ovEntry),
	}, nil
}

// Open attaches to an existing structure. A writer handle recovers its
// log tails by scanning forward from the persisted cursors, which is the
// front-end half of the §7.2 recovery protocol.
func (c *Conn) Open(name string, writer bool) (*Handle, error) {
	table, err := c.readNameTable()
	if err != nil {
		return nil, err
	}
	slot, entry, found := c.findSlot(table, name)
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if entry.Aux == 0 {
		return nil, fmt.Errorf("core: %q creation incomplete", name)
	}
	aux := make([]byte, backend.AuxUser)
	if err := c.epRead(backend.AddrOff(entry.Aux), aux); err != nil {
		return nil, err
	}
	h := &Handle{
		c:       c,
		slot:    slot,
		typ:     entry.Type,
		tag:     uint32(c.backendID)<<16 | uint32(slot),
		auxAddr: entry.Aux,
		memArea: logrec.Area{Base: binary.LittleEndian.Uint64(aux[backend.AuxMemLogBaseOff:]), Size: binary.LittleEndian.Uint64(aux[backend.AuxMemLogSizeOff:])},
		opArea:  logrec.Area{Base: binary.LittleEndian.Uint64(aux[backend.AuxOpLogBaseOff:]), Size: binary.LittleEndian.Uint64(aux[backend.AuxOpLogSizeOff:])},
		writer:  writer,
		// Seed the append-space gates from the image just read; the
		// truncation points only grow, so a stale value is merely
		// conservative and the wait loops refresh it on demand.
		memTruncKnown: binary.LittleEndian.Uint64(aux[backend.AuxMemTruncOff:]),
		opTruncKnown:  binary.LittleEndian.Uint64(aux[backend.AuxOpTruncOff:]),
	}
	if writer {
		h.overlay = make(map[uint64]*ovEntry)
		if err := h.recoverTails(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// recoverTails reconstructs the writer's append positions after a crash
// or reconnect: scan the memory log forward from max(LPN, persisted hint)
// until records stop validating, and likewise for the op log. Stale or
// torn tail records are simply where appending resumes — rewriting them
// re-forms the transaction the back-end never acknowledged (Case 2.b/3.b).
// A hint no valid record starts at — the tail itself, or a word a dying write
// tore (persistHints) — is not trusted: the scan starts over at the cursor.
func (h *Handle) recoverTails() error {
	lpn, err := h.auxField(backend.AuxLPNOff)
	if err != nil {
		return err
	}
	opn, err := h.auxField(backend.AuxOPNOff)
	if err != nil {
		return err
	}
	memHint, err := h.auxField(backend.AuxMemTailOff)
	if err != nil {
		return err
	}
	opHint, err := h.auxField(backend.AuxOpTailOff)
	if err != nil {
		return err
	}
	h.lpnKnown = lpn
	h.opnKnown = opn

	// The memory-log scan dispatches on the record magic: plain
	// transactions just advance the tail, while 2PC records rebuild the
	// writer's view of unresolved cross-shard state — prepares without a
	// resolving decision and coordinator commit records without a KindEnd
	// (twopc.go's RecoverTx consumes both).
	h.memTail = maxU64(lpn, memHint)
	prep := make(map[uint64]logrec.PrepareRecord)
	prepAbs := make(map[uint64]uint64)
	var prepOrder []uint64
	commits := make(map[uint64]uint64)
	for {
		var kind byte
		var prec logrec.PrepareRecord
		var crec logrec.CommitRecord
		start := h.memTail
		used, err := h.scanOne(h.memArea, start, func(buf []byte, abs uint64) (int, error) {
			switch buf[0] {
			case logrec.PrepareMagic:
				p, n, derr := logrec.DecodePrepare(buf, abs)
				if derr == nil {
					kind, prec = logrec.PrepareMagic, p
				}
				return n, derr
			case logrec.CommitMagic:
				cr, n, derr := logrec.DecodeCommit(buf, abs)
				if derr == nil {
					kind, crec = logrec.CommitMagic, cr
				}
				return n, derr
			default:
				_, n, derr := logrec.DecodeTx(buf, abs)
				if derr == nil {
					kind = 0
				}
				return n, derr
			}
		})
		if err != nil {
			return err
		}
		if used == 0 {
			if start == memHint && start > lpn {
				h.memTail, memHint = lpn, 0
				continue
			}
			break
		}
		switch kind {
		case logrec.PrepareMagic:
			if _, dup := prep[prec.TxID]; !dup {
				prep[prec.TxID] = prec
				prepAbs[prec.TxID] = start
				prepOrder = append(prepOrder, prec.TxID)
			}
		case logrec.CommitMagic:
			switch crec.Kind {
			case logrec.KindCommit:
				commits[crec.TxID] = start
			case logrec.KindEnd:
				delete(commits, crec.TxID)
			case logrec.KindApply, logrec.KindAbort:
				if _, ok := prep[crec.TxID]; ok {
					delete(prep, crec.TxID)
					delete(prepAbs, crec.TxID)
					for i, id := range prepOrder {
						if id == crec.TxID {
							prepOrder = append(prepOrder[:i], prepOrder[i+1:]...)
							break
						}
					}
				}
			}
		}
		h.memTail += uint64(used)
	}
	h.inDoubt = h.inDoubt[:0]
	for _, txid := range prepOrder {
		h.inDoubt = append(h.inDoubt, prep[txid])
	}
	h.unEnded = h.unEnded[:0]
	for txid := range commits {
		h.unEnded = append(h.unEnded, txid)
	}
	// Unresolved 2PC records pin the back-end's durable LPN (its hold
	// floor): the catch-up wait below must stop there, not at the tail.
	waitTo := h.memTail
	for _, txid := range prepOrder {
		if a := prepAbs[txid]; a < waitTo {
			waitTo = a
		}
	}
	for _, a := range commits {
		if a < waitTo {
			waitTo = a
		}
	}

	h.opTail = maxU64(opn, opHint)
	for {
		used, err := h.scanOne(h.opArea, h.opTail, func(buf []byte, abs uint64) (int, error) {
			_, n, derr := logrec.DecodeOp(buf, abs)
			return n, derr
		})
		if err != nil {
			return err
		}
		if used == 0 {
			if h.opTail == opHint && opHint > opn {
				h.opTail, opHint = opn, 0
				continue
			}
			break
		}
		h.opTail += uint64(used)
	}
	h.coveredOp = h.opTail

	// Let the replayer catch up with everything already persisted before
	// recovery decisions are made: once LPN reaches the tail (or the 2PC
	// hold floor, whichever is lower), the OPN is final and PendingOps
	// returns exactly the operations whose memory logs never made it (no
	// double application).
	for i := 0; ; i++ {
		var cur uint64
		var err error
		if i == 0 {
			cur, err = h.auxField(backend.AuxLPNOff)
		} else {
			cur, err = h.auxFieldQuiet(backend.AuxLPNOff)
		}
		if err != nil {
			return err
		}
		if cur >= waitTo {
			h.lpnKnown = cur
			break
		}
		if i > pollLimit {
			return fmt.Errorf("core: recovery replay stuck (tail=%d lpn=%d)", h.memTail, cur)
		}
		h.c.kick()
		runtime.Gosched()
	}
	opn2, err := h.auxField(backend.AuxOPNOff)
	if err != nil {
		return err
	}
	h.opnKnown = opn2
	return nil
}

// scanOne reads enough bytes at abs to decode one record, returning its
// wire length, or 0 when the log ends there.
func (h *Handle) scanOne(area logrec.Area, abs uint64, dec func([]byte, uint64) (int, error)) (int, error) {
	chunk := 512
	for {
		if uint64(chunk) > area.Size {
			chunk = int(area.Size)
		}
		buf := make([]byte, chunk)
		pos := 0
		for _, r := range area.Split(abs, chunk) {
			if err := h.c.epRead(r.DevOff, buf[pos:pos+r.Len]); err != nil {
				return 0, err
			}
			pos += r.Len
		}
		n, derr := dec(buf, abs)
		if derr == nil {
			return n, nil
		}
		if errors.Is(derr, logrec.ErrShort) && chunk < maxScanChunk && uint64(chunk) < area.Size {
			chunk *= 2
			continue
		}
		return 0, nil // invalid or truncated: the tail is here
	}
}

// maxScanChunk bounds the recovery scan buffer; it must exceed the
// largest possible log record (see backend's maxTxChunk) or recovery
// would truncate a valid log at a big batched transaction.
const maxScanChunk = 16 << 20

// PendingOps returns the op-log records the back-end has not yet covered
// with applied memory logs (the re-execution list of Cases 2.c and 3.c).
// Data-structure code replays them through its normal operations.
func (h *Handle) PendingOps() ([]logrec.OpRecord, error) {
	opn, err := h.auxField(backend.AuxOPNOff)
	if err != nil {
		return nil, err
	}
	var out []logrec.OpRecord
	abs := opn
	for {
		var rec logrec.OpRecord
		used, err := h.scanOne(h.opArea, abs, func(buf []byte, a uint64) (int, error) {
			r, n, derr := logrec.DecodeOp(buf, a)
			if derr == nil {
				rec = r
			}
			return n, derr
		})
		if err != nil {
			return nil, err
		}
		if used == 0 {
			return out, nil
		}
		// Cross-shard transactional records are settled by prepare
		// resolution (commit applies the buffered entries, presumed
		// abort discards them); re-executing one here would apply a
		// single shard's half of the transaction.
		if rec.OpType&logrec.OpTxFlag == 0 {
			out = append(out, rec)
		}
		abs += uint64(used)
	}
}

// HistoryOps returns every intact operation record of the structure,
// from the op log's origin to its tail — the semantic history a
// migration re-executes on a destination back-end. Raw data-area bytes
// cannot move between nodes (global addresses embed the owning node id),
// so elastic rebalancing ships this stream instead. The history is only
// complete while the op-log ring has never wrapped: once the writer laps
// the area, the oldest records are overwritten and their effects live
// only in the source's data area, so migration refuses to stream (the
// archive mirror carries the full stream for that case).
func (h *Handle) HistoryOps() ([]logrec.OpRecord, error) {
	if !h.writer {
		return nil, fmt.Errorf("core: op history needs the writer handle")
	}
	if h.opTail > h.opArea.Size {
		return nil, fmt.Errorf("core: op log wrapped (%d bytes appended into a %d-byte area); migrate from the archive stream",
			h.opTail, h.opArea.Size)
	}
	var out []logrec.OpRecord
	abs := uint64(0)
	for {
		var rec logrec.OpRecord
		used, err := h.scanOne(h.opArea, abs, func(buf []byte, a uint64) (int, error) {
			r, n, derr := logrec.DecodeOp(buf, a)
			if derr == nil {
				rec = r
			}
			return n, derr
		})
		if err != nil {
			return nil, err
		}
		if used == 0 {
			return out, nil
		}
		// A cross-shard transactional record's fate was decided by prepare
		// resolution, which the op log alone cannot reconstruct: replaying
		// it might apply an aborted transaction's half, skipping it might
		// lose a committed one. Refuse rather than guess.
		if rec.OpType&logrec.OpTxFlag != 0 {
			return nil, fmt.Errorf("core: op history holds cross-shard record at %d; structures with 2PC history do not migrate", abs)
		}
		out = append(out, rec)
		abs += uint64(used)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
