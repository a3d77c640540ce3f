package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asymnvm/internal/alloc"
	"asymnvm/internal/arena"
	"asymnvm/internal/clock"
	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
	"asymnvm/internal/ring"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// MirrorSink receives replicated state from a primary back-end (§7.1).
// The back-end pushes to its mirrors asynchronously — off the front-end
// critical path — after log records become durable locally.
type MirrorSink interface {
	// WantsRaw reports whether the sink keeps a byte-identical replica
	// (an NVM-equipped mirror). Raw forwards carry device ranges.
	WantsRaw() bool
	// MirrorWrite applies a raw device range to the replica. data is
	// valid for the call only (op records are forwarded out of the service
	// loop's reused scan buffer): a sink that keeps it copies it.
	MirrorWrite(devOff uint64, data []byte) error
	// MirrorOp archives one encoded operation-log record (the semantic
	// stream kept by SSD/disk mirrors).
	MirrorOp(slot uint16, rec []byte) error
	// MirrorKick signals that new replicated data is available.
	MirrorKick()
}

// SlotStatus describes what restart recovery found for one structure
// (the §7.2 case analysis is driven by these fields).
type SlotStatus struct {
	Slot uint16
	Type uint8
	Name string
	// TornTail is true when the memory log ends in a transaction that
	// has a header but fails commit/checksum validation (Case 3.b): the
	// writing front-end never got its ack and must re-flush.
	TornTail bool
	// TornAt is the absolute memory-log offset of the torn record.
	TornAt uint64
	// PendingOps counts valid operation-log records at or above the OPN,
	// i.e. operations whose memory logs were never persisted (Case 3.c):
	// the front-end re-executes them.
	PendingOps int
	// LockHeld is the stale writer-lock owner (owner id + 1), 0 if free.
	LockHeld uint64
	// InDoubt counts prepared transactions recovery could not resolve
	// (coordinator unreachable): they stay buffered and pin the cursors.
	InDoubt int
}

// Backend is one back-end node: an NVM device plus the minimal passive
// services of §3.3 — it never initiates communication with front-ends.
type Backend struct {
	id     uint16
	dev    *nvm.Device
	target *rdma.Target
	layout Layout
	clk    clock.Clock
	st     *stats.Stats
	prof   clock.Profile
	tr     *trace.ActorTracer // nil when tracing is disabled

	allocMu sync.Mutex
	balloc  *alloc.Bitmap

	// kick is the service loop's doorbell (the DMA-completion interrupt
	// stand-in). A doorbell instead of a closable channel makes the
	// power-fail teardown race-free by construction: front-ends may Kick
	// at any time — including after Halt has retired the loop — without
	// a mutex, a panic, or a block.
	kick     *ring.Doorbell
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	halt     chan struct{}
	haltOnce sync.Once

	// Compaction plane (see compact.go). epoch is this incarnation's
	// header epoch; inRecovery marks recover()'s replay so its
	// transactions count toward RecoveryReplayOps; ckptOff latches after a
	// CheckpointHook simulated a mid-checkpoint crash.
	compact    *CompactConfig
	ckptHook   func(CkptEvent) CkptAction
	epoch      uint64
	inRecovery bool
	ckptOff    bool
	// replayFromZero: test-only full-history recovery (Options doc).
	replayFromZero bool

	// mirPipe pipelines the virtual-clock cost of mirror forwarding
	// (service goroutine only; see mirrorpipe.go).
	mirPipe mirrorPipe

	// Replay decode scratch (service goroutine only): records and their
	// value bytes are reused across transactions so the replayer's
	// steady-state hot loop stays off the heap.
	txScratch  logrec.TxRecord
	opScratch  logrec.OpRecord
	cmtScratch logrec.CommitRecord
	decArena   arena.Arena
	// opArena is the op-log scan's own arena: the scan can run nested
	// inside a transaction's replay (forwardMemRecord), whose record
	// still lives in decArena.
	opArena arena.Arena
	// Log-read scratch (service goroutine only; readArea): the memory-log
	// scan's chunk, the op-log scan's — it runs nested inside the former —
	// and the op-log bytes a FlagOpRef entry points at, applied while the
	// memory-log chunk is still being decoded.
	memScan, opScan, refVal []byte
	dssScan                 []*dsReplay // replayAll's snapshot of dss
	rpcReq                  [64]byte    // serveRPC's request-cell read buffer

	// resolver consults a coordinator log for in-doubt prepares during
	// recovery (see twopc.go); nil leaves them held.
	resolver TxResolver

	mu      sync.Mutex
	dss     map[uint16]*dsReplay
	rpcLast []uint64
	mirrors []MirrorSink
	repErr  error // first replication/replay error, surfaced in tests

	recovered []SlotStatus
}

// dsReplay is the replayer's per-structure cursor state (rebuilt from the
// aux block on restart; the NVM copy is authoritative).
type dsReplay struct {
	slot    uint16
	auxOff  uint64
	memArea logrec.Area
	opArea  logrec.Area
	lpn     atomic.Uint64 // memory-log bytes applied and persisted
	opn     atomic.Uint64 // op-log offset covered by applied transactions
	opSeen  uint64        // op-log scan cursor (backend goroutine only)
	snOff   uint64

	memTrunc atomic.Uint64 // memory-log truncation point (reclaimed below)
	opTrunc  atomic.Uint64 // op-log truncation point
	// Compaction bookkeeping (service goroutine only).
	ckptSeq      uint64 // next checkpoint sequence number
	appliedSince uint64 // memory-log bytes applied since the last checkpoint
	memRec       *alloc.Reclaimer
	opRec        *alloc.Reclaimer

	// Two-phase-commit hold state (see twopc.go). Mutated by the service
	// goroutine; twopcMu lets status accessors read it concurrently.
	twopcMu   sync.Mutex
	prep      map[uint64]*heldPrepare // buffered prepares by txid
	prepOrder []uint64                // prepare txids in log order
	commits   map[uint64]uint64       // un-Ended commit txid -> record abs
}

// Options configures a back-end node.
type Options struct {
	ID      uint16
	Clock   clock.Clock    // defaults to a fresh virtual clock
	Stats   *stats.Stats   // defaults to a private sink
	Profile *clock.Profile // defaults to clock.DefaultProfile
	Config  *Config        // format geometry, defaults to DefaultConfig
	Tracer  *trace.Tracer  // span tracer registry; nil disables tracing
	// Compact enables the checkpoint/compaction plane (lazy application
	// with periodic checkpoints and log truncation). nil keeps the
	// classic eager per-transaction persist.
	Compact *CompactConfig
	// CheckpointHook, when set, is consulted before each checkpoint step;
	// crash tests return CkptCrash to tear the step (see compact.go).
	CheckpointHook func(CkptEvent) CkptAction
	// TxResolver consults a coordinator structure's log for in-doubt
	// prepared transactions during recovery (presumed abort needs a
	// reachable coordinator to declare an abort). nil keeps in-doubt
	// prepares buffered, pinning cursors and checkpoints below them.
	TxResolver TxResolver
	// replayFromZero makes recovery ignore checkpoints and durable
	// cursors and replay every structure's full log from offset zero.
	// Test-only (see export_test.go): the replay-equivalence property
	// compares this recovery against the checkpoint+suffix one.
	replayFromZero bool
}

func (o *Options) fill() {
	if o.Clock == nil {
		o.Clock = clock.NewVirtual()
	}
	if o.Stats == nil {
		o.Stats = &stats.Stats{}
	}
	if o.Profile == nil {
		p := clock.DefaultProfile()
		o.Profile = &p
	}
	if o.Config == nil {
		c := DefaultConfig()
		o.Config = &c
	}
}

// New opens (or formats, when the device is blank) a back-end on dev and
// runs restart recovery. Call Start to launch the service loop.
func New(dev *nvm.Device, opts Options) (*Backend, error) {
	opts.fill()
	layout, err := ReadLayout(dev)
	if err != nil {
		layout, err = Format(dev, *opts.Config)
		if err != nil {
			return nil, err
		}
	}
	b := &Backend{
		id:     opts.ID,
		dev:    dev,
		target: rdma.NewTarget(dev),
		layout: layout,
		clk:    opts.Clock,
		st:     opts.Stats,
		prof:   *opts.Profile,
		kick:   ring.NewDoorbell(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		halt:   make(chan struct{}),
		dss:    make(map[uint16]*dsReplay),
	}
	if opts.Compact != nil {
		cc := *opts.Compact
		b.compact = &cc
		b.ckptHook = opts.CheckpointHook
	}
	b.replayFromZero = opts.replayFromZero
	b.resolver = opts.TxResolver
	if opts.Tracer != nil {
		b.tr = opts.Tracer.Actor(fmt.Sprintf("bk%03d", opts.ID), b.clk, b.st)
	}
	if err := b.recover(); err != nil {
		return nil, err
	}
	return b, nil
}

// ID returns the node id used in global addresses.
func (b *Backend) ID() uint16 { return b.id }

// Target returns the RDMA registration front-ends connect to.
func (b *Backend) Target() *rdma.Target { return b.target }

// Layout returns the decoded device layout.
func (b *Backend) Layout() Layout { return b.layout }

// Device returns the underlying NVM device (crash injection in tests).
func (b *Backend) Device() *nvm.Device { return b.dev }

// Stats returns the node's counter sink.
func (b *Backend) Stats() *stats.Stats { return b.st }

// Clock returns the node's virtual clock.
func (b *Backend) Clock() clock.Clock { return b.clk }

// RecoveredSlots reports what restart recovery found, one entry per used
// naming slot. Fresh devices report nothing.
func (b *Backend) RecoveredSlots() []SlotStatus { return b.recovered }

// AddMirror attaches a mirror sink. Call before Start.
func (b *Backend) AddMirror(m MirrorSink) {
	b.mu.Lock()
	b.mirrors = append(b.mirrors, m)
	b.mu.Unlock()
}

// RemoveMirror detaches a mirror sink previously attached with
// AddMirror, looking through any interposed wrapper that exposes the
// original via Inner() (the fault plane's lag queues do). Detaching a
// sink that was never attached is a no-op.
func (b *Backend) RemoveMirror(m MirrorSink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.mirrors[:0]
	for _, s := range b.mirrors {
		cur := s
		for cur != m {
			iw, ok := cur.(interface{ Inner() MirrorSink })
			if !ok {
				break
			}
			cur = iw.Inner()
		}
		if cur == m {
			continue
		}
		out = append(out, s)
	}
	b.mirrors = out
}

// ReplicationError returns the first error the replication/replay path
// hit, if any.
func (b *Backend) ReplicationError() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.repErr
}

// Alive reports whether the service goroutine is still running. It goes
// false once Stop, Halt, or a fatal replay error has retired the loop —
// the liveness leg of a serving cell's readiness check.
func (b *Backend) Alive() bool {
	select {
	case <-b.done:
		return false
	default:
		return true
	}
}

// ReplayLag sums, across attached structures, the memory-log bytes the
// front-ends have published (the aux tail hint) that this node's
// replayer has not yet applied. Zero means the materialized state is
// caught up with everything durably written. The tail hint goes through
// the device's locked accessor and the cursor is atomic, so this is
// safe to call from any goroutine while replay runs.
func (b *Backend) ReplayLag() uint64 {
	b.mu.Lock()
	dss := make([]*dsReplay, 0, len(b.dss))
	for _, d := range b.dss {
		dss = append(dss, d)
	}
	b.mu.Unlock()
	var lag uint64
	for _, d := range dss {
		tail, err := b.dev.Load64(d.auxOff + AuxMemTailOff)
		if err != nil {
			continue
		}
		if applied := d.lpn.Load(); tail > applied {
			lag += tail - applied
		}
	}
	return lag
}

// SlotSNs reports the seqlock sequence number of every structure slot
// this node's replayer has discovered, keyed by slot. The SN advances
// twice per applied transaction, deterministically from the log, so a
// mirror that has replayed the same prefix shows the same SN: equal
// maps mean the mirror's materialized state matches the primary's.
func (b *Backend) SlotSNs() map[uint16]uint64 {
	b.mu.Lock()
	dss := make([]*dsReplay, 0, len(b.dss))
	for _, d := range b.dss {
		dss = append(dss, d)
	}
	b.mu.Unlock()
	sns := make(map[uint16]uint64, len(dss))
	for _, d := range dss {
		sn, err := b.dev.Load64(d.snOff)
		if err != nil {
			continue
		}
		sns[d.slot] = sn
	}
	return sns
}

// Start launches the back-end service goroutine: it sleeps until kicked,
// then serves RPC cells and replays new log records. The kick stands in
// for the DMA-completion interrupt of a real NIC; no payload crosses it —
// every byte the service consumes comes from the NVM device.
func (b *Backend) Start() {
	go b.run()
}

// Stop terminates the service loop and waits for it to drain. Stop is
// idempotent: crash and failover paths (cluster.CrashBackend followed by
// mirror promotion) may both try to halt the same node.
func (b *Backend) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
}

// Halt terminates the service loop WITHOUT the final drain or checkpoint:
// unapplied log records stay unapplied and the device's volatile window
// stays open. It models losing the node mid-flight — power-fail paths
// call Halt and then Device().Crash, where Stop would tidy up first and
// hide the crash. Idempotent, and safe to interleave with Stop.
func (b *Backend) Halt() {
	b.haltOnce.Do(func() { close(b.halt) })
	<-b.done
}

// WrapMirrors replaces every attached mirror sink with wrap(sink). The
// fault plane uses it to interpose lag queues between the primary's
// replication path and its replicas. Call before Start (or while the
// service loop is quiescent).
func (b *Backend) WrapMirrors(wrap func(MirrorSink) MirrorSink) {
	b.mu.Lock()
	for i, m := range b.mirrors {
		b.mirrors[i] = wrap(m)
	}
	b.mu.Unlock()
}

// Kick wakes the service loop (called by front-end libraries after they
// write log records or RPC requests, and by mirrors feeding a promoted
// node). Safe from any goroutine at any time — including after Halt or
// Stop have retired the loop; coalesces and never blocks.
func (b *Backend) Kick() {
	b.kick.Ring()
}

func (b *Backend) run() {
	defer close(b.done)
	for {
		if !b.kick.Poll() {
			switch b.kick.Park(b.halt, b.stop) {
			case 0: // halted mid-flight: no drain, the "power" is gone
				return
			case 1:
				b.stopDrain()
				return
			}
		}
		// A pending kick must not outrank teardown: halt wins outright,
		// stop still gets its final drain.
		select {
		case <-b.halt:
			return
		default:
		}
		select {
		case <-b.stop:
			b.stopDrain()
			return
		default:
		}
		b.serveRPC()
		b.replayAll()
		b.drainMirrorPipe()
	}
}

// stopDrain is Stop()'s final pass: it leaves the device fully applied —
// and, with compaction on, checkpointed and truncated.
func (b *Backend) stopDrain() {
	b.serveRPC()
	b.replayAll()
	b.checkpointAll()
	b.drainMirrorPipe()
}

// setErr records the first background error.
func (b *Backend) setErr(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.repErr == nil {
		b.repErr = err
	}
	b.mu.Unlock()
}

// ---- memory management service (§5.1) ----

// serveRPC scans every connection's request cell and executes fresh
// requests. The whole path is local: bitmap update, persist, response.
func (b *Backend) serveRPC() {
	n := int(b.layout.RPCSlots)
	buf := b.rpcReq[:] // one pass per kick, however many the host coalesces: no buffer each
	for c := 0; c < n; c++ {
		if err := b.dev.ReadAt(b.layout.RPCReqOff(uint16(c)), buf); err != nil {
			b.setErr(err)
			return
		}
		b.chargeBusy(b.prof.LocalNVMRead(64))
		req, ok := DecodeRPCRequest(buf)
		// Any newer sequence number is fresh, not only the successor: a
		// client that abandoned a call (attempt budget or deadline spent)
		// skips its number, and one cell per connection cannot reorder.
		if !ok || req.Seq <= b.rpcLast[c] {
			continue
		}
		resp := b.execRPC(req)
		wire := EncodeRPCResponse(resp)
		// Counted before the response is visible: whoever has seen the
		// response has seen the count.
		b.st.RPCCalls.Add(1)
		if err := b.dev.WritePersist(b.layout.RPCRespOff(uint16(c)), wire); err != nil {
			b.setErr(err)
			return
		}
		b.chargeBusy(b.prof.LocalNVMWrite(64) + b.prof.PersistBarrier)
		b.rpcLast[c] = req.Seq
		b.forwardRaw(b.layout.RPCRespOff(uint16(c)), wire)
	}
}

func (b *Backend) execRPC(req RPCRequest) RPCResponse {
	switch req.Op {
	case RPCMalloc, RPCCalloc:
		addr, err := b.mallocBlocks(req.A1)
		if err != nil {
			return RPCResponse{Seq: req.Seq, Status: RPCNoSpace}
		}
		if req.Op == RPCCalloc {
			blocks := (req.A1 + b.layout.BlockSize - 1) / b.layout.BlockSize
			zero := make([]byte, blocks*b.layout.BlockSize)
			if err := b.dev.WritePersist(AddrOff(addr), zero); err != nil {
				return RPCResponse{Seq: req.Seq, Status: RPCErr}
			}
			b.chargeBusy(b.prof.LocalNVMWrite(len(zero)))
			b.forwardRaw(AddrOff(addr), zero)
		}
		b.st.Allocs.Add(1)
		return RPCResponse{Seq: req.Seq, Status: RPCOK, Result: addr}
	case RPCFree:
		if err := b.freeBlocks(req.A1, req.A2); err != nil {
			return RPCResponse{Seq: req.Seq, Status: RPCErr}
		}
		b.st.Frees.Add(1)
		return RPCResponse{Seq: req.Seq, Status: RPCOK}
	default:
		return RPCResponse{Seq: req.Seq, Status: RPCErr}
	}
}

// mallocBlocks allocates ceil(size/blockSize) contiguous blocks and
// persists the dirtied bitmap range.
func (b *Backend) mallocBlocks(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("backend: zero-size malloc")
	}
	blocks := int((size + b.layout.BlockSize - 1) / b.layout.BlockSize)
	b.allocMu.Lock()
	blk, dr, err := b.balloc.Alloc(blocks)
	if err != nil {
		b.allocMu.Unlock()
		return 0, err
	}
	img := make([]byte, dr.Len)
	copy(img, b.balloc.Bytes()[dr.Off:dr.Off+dr.Len])
	b.allocMu.Unlock()
	devOff := b.layout.BitmapBase + uint64(dr.Off)
	if err := b.dev.WritePersist(devOff, img); err != nil {
		return 0, err
	}
	b.chargeBusy(b.prof.LocalNVMWrite(dr.Len) + b.prof.PersistBarrier)
	b.forwardRaw(devOff, img)
	return GlobalAddr(b.id, b.layout.DataBase+uint64(blk)*b.layout.BlockSize), nil
}

func (b *Backend) freeBlocks(addr, size uint64) error {
	node, off := SplitAddr(addr)
	if node != b.id {
		return fmt.Errorf("backend %d: free of foreign address %#x", b.id, addr)
	}
	if off < b.layout.DataBase || off%b.layout.BlockSize != 0 {
		return fmt.Errorf("backend: misaligned free %#x", addr)
	}
	blk := int((off - b.layout.DataBase) / b.layout.BlockSize)
	blocks := int((size + b.layout.BlockSize - 1) / b.layout.BlockSize)
	b.allocMu.Lock()
	dr, err := b.balloc.Free(blk, blocks)
	if err != nil {
		b.allocMu.Unlock()
		return err
	}
	img := make([]byte, dr.Len)
	copy(img, b.balloc.Bytes()[dr.Off:dr.Off+dr.Len])
	b.allocMu.Unlock()
	devOff := b.layout.BitmapBase + uint64(dr.Off)
	if err := b.dev.WritePersist(devOff, img); err != nil {
		return err
	}
	b.chargeBusy(b.prof.LocalNVMWrite(dr.Len) + b.prof.PersistBarrier)
	b.forwardRaw(devOff, img)
	return nil
}

// FreeBlocksCount reports the allocator's free block count (cost figures).
func (b *Backend) FreeBlocksCount() int {
	b.allocMu.Lock()
	defer b.allocMu.Unlock()
	return b.balloc.FreeBlocks()
}

// chargeBusy advances the node's virtual clock and records the time as
// CPU-busy, so Figure 11 can report back-end utilization.
func (b *Backend) chargeBusy(d time.Duration) {
	b.clk.Advance(d)
	b.st.AddBusy(d)
}
