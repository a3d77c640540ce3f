package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"asymnvm/internal/alloc"
	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/rdma"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// ErrBackendDown is returned when the fabric reports the back-end gone.
var ErrBackendDown = errors.New("core: back-end unreachable")

// Mode is the optimization ladder of the evaluation (Table 3):
// the naive configuration turns everything off; R enables the op-log
// write path with decoupled replay; C enables the DRAM cache; B>1
// enables batching of memory logs (and group commit of op logs).
type Mode struct {
	// OpLog enables the operation-log write path (R). When false, writes
	// go directly in place over RDMA with no crash consistency — the
	// paper's naive baseline.
	OpLog bool
	// CacheBytes > 0 enables the DRAM cache (C) with that capacity.
	CacheBytes int64
	// Batch is the number of operations whose memory logs are coalesced
	// into one rnvm_tx_write (B). 1 disables batching.
	Batch int
	// Policy selects the cache replacement policy (hybrid by default).
	Policy Policy
	// Pipeline is the posted-verb send-queue depth per connection.
	// 0 or 1 keeps every verb synchronous (one RTT charged before the
	// next verb may issue); >1 lets the hot paths post that many work
	// requests asynchronously, paying one RTT per doorbell group.
	Pipeline int
	// AutoTune enables the adaptive controller (autotune.go): the
	// effective batch size and pipeline depth start at 1 and are tuned
	// online — slow-start then AIMD on the p95 of the commit-phase
	// latency — bounded above by the static Batch and Pipeline values,
	// which become ceilings instead of fixed settings. Deterministic on
	// the virtual clock. Requires OpLog.
	AutoTune bool
}

// WithPipeline returns a copy of the mode with the posted-verb queue
// depth set, for composing on top of the ladder constructors:
// core.ModeRCB(cache, 64).WithPipeline(16).
func (m Mode) WithPipeline(depth int) Mode {
	m.Pipeline = depth
	return m
}

// WithAutoTune returns a copy of the mode with the adaptive batch/depth
// controller enabled; Batch and Pipeline become its upper bounds.
func (m Mode) WithAutoTune() Mode {
	m.AutoTune = true
	return m
}

// ModeNaive is the unoptimized baseline.
func ModeNaive() Mode { return Mode{} }

// ModeR enables log reproducing only.
func ModeR() Mode { return Mode{OpLog: true, Batch: 1} }

// ModeRC adds a cache of the given size.
func ModeRC(cacheBytes int64) Mode { return Mode{OpLog: true, Batch: 1, CacheBytes: cacheBytes} }

// ModeRCB adds batching.
func ModeRCB(cacheBytes int64, batch int) Mode {
	return Mode{OpLog: true, Batch: batch, CacheBytes: cacheBytes}
}

// Frontend is one front-end node: a client machine with no NVM of its own
// that operates persistent structures living on remote back-ends.
type Frontend struct {
	id    uint16
	clk   clock.Clock
	st    *stats.Stats
	prof  clock.Profile
	cache *Cache
	mode  Mode
	conns map[uint16]*Conn
	rng   uint64 // xorshift state for skiplist levels etc.
	retry RetryPolicy
	// deadlineAt is the armed virtual-time deadline (0 = none); owned by
	// the node's operating goroutine like the rest of the writer state.
	deadlineAt time.Duration
	tr         *trace.ActorTracer // nil when tracing is disabled
	tuner      *autoTuner         // nil unless Mode.AutoTune
}

// FrontendOptions configures a front-end node.
type FrontendOptions struct {
	ID      uint16
	Mode    Mode
	Clock   clock.Clock
	Stats   *stats.Stats
	Profile *clock.Profile
	Retry   *RetryPolicy  // verb retry policy, DefaultRetryPolicy when nil
	Tracer  *trace.Tracer // span tracer registry; nil disables tracing
}

// NewFrontend creates a front-end node.
func NewFrontend(opts FrontendOptions) *Frontend {
	if opts.Clock == nil {
		opts.Clock = clock.NewVirtual()
	}
	if opts.Stats == nil {
		opts.Stats = &stats.Stats{}
	}
	if opts.Profile == nil {
		p := clock.DefaultProfile()
		opts.Profile = &p
	}
	fe := &Frontend{
		id:    opts.ID,
		clk:   opts.Clock,
		st:    opts.Stats,
		prof:  *opts.Profile,
		mode:  opts.Mode,
		conns: make(map[uint16]*Conn),
		rng:   uint64(opts.ID)*0x9E3779B97F4A7C15 + 0x1234567,
		retry: DefaultRetryPolicy(),
	}
	if opts.Retry != nil {
		fe.retry = *opts.Retry
	}
	if opts.Tracer != nil {
		fe.tr = opts.Tracer.Actor(fmt.Sprintf("fe%03d", opts.ID), fe.clk, fe.st)
	}
	if opts.Mode.CacheBytes > 0 {
		fe.cache = NewCache(opts.Mode.CacheBytes, opts.Mode.Policy, opts.Stats)
	}
	if opts.Mode.AutoTune && opts.Mode.OpLog {
		fe.tuner = newAutoTuner(opts.Mode)
		fe.st.AutoTuneBatch.Store(int64(fe.tuner.batch))
		fe.st.AutoTuneDepth.Store(int64(fe.tuner.depth))
	}
	return fe
}

// ID returns the front-end node id (also its RPC slot on each back-end
// and its writer-lock owner id).
func (fe *Frontend) ID() uint16 { return fe.id }

// Clock returns the node's virtual clock.
func (fe *Frontend) Clock() clock.Clock { return fe.clk }

// Stats returns the node's counters.
func (fe *Frontend) Stats() *stats.Stats { return fe.st }

// Mode returns the optimization configuration.
func (fe *Frontend) Mode() Mode { return fe.mode }

// Cache returns the DRAM cache, or nil when caching is off.
func (fe *Frontend) Cache() *Cache { return fe.cache }

// Profile returns the latency model.
func (fe *Frontend) Profile() clock.Profile { return fe.prof }

// Tracer returns the front-end actor's tracer, nil when tracing is off.
func (fe *Frontend) Tracer() *trace.ActorTracer { return fe.tr }

// ChargeOp charges the fixed per-operation CPU cost.
func (fe *Frontend) ChargeOp() {
	fe.clk.Advance(fe.prof.CPUOp)
	fe.tr.Charge(trace.KindCPU, fe.prof.CPUOp)
	fe.st.AddBusy(fe.prof.CPUOp)
}

// Rand returns a fast pseudo-random 64-bit value (xorshift*; front-end
// local, deterministic per node id).
func (fe *Frontend) Rand() uint64 {
	fe.rng ^= fe.rng >> 12
	fe.rng ^= fe.rng << 25
	fe.rng ^= fe.rng >> 27
	return fe.rng * 0x2545F4914F6CDD1D
}

// Conn is this front-end's connection to one back-end: the RDMA endpoint,
// the decoded layout, the RPC client and the two-tier allocator.
type Conn struct {
	fe        *Frontend
	backendID uint16
	ep        *rdma.Endpoint
	layout    backend.Layout
	kick      func()
	alive     func() bool // the mounted node's service loop still runs
	rpcSeq    uint64
	slab      *alloc.TwoTier
	epoch     uint64 // back-end incarnation observed at connect
	failover  func() (*backend.Backend, error)
}

// Connect mounts a back-end. kick wakes the back-end service loop — it
// models the RDMA completion event, carries no data, and is the only
// non-NVM channel between the nodes.
func (fe *Frontend) Connect(bk *backend.Backend) (*Conn, error) {
	ep := rdma.Connect(bk.Target(), fe.clk, fe.st, fe.prof)
	ep.SetPipeline(fe.effDepth())
	ep.SetTracer(fe.tr)
	hdr := make([]byte, backend.HeaderSize)
	if err := ep.Read(0, hdr); err != nil {
		return nil, err
	}
	layout, err := backend.DecodeLayout(hdr)
	if err != nil {
		return nil, err
	}
	if uint64(fe.id) >= layout.RPCSlots {
		return nil, fmt.Errorf("core: front-end id %d exceeds the back-end's %d connection slots", fe.id, layout.RPCSlots)
	}
	c := &Conn{
		fe:        fe,
		backendID: bk.ID(),
		ep:        ep,
		layout:    layout,
		kick:      bk.Kick,
		alive:     bk.Alive,
	}
	// Resume the RPC sequence from the response cell (idempotent across
	// front-end restarts).
	cell := make([]byte, 64)
	if err := ep.Read(layout.RPCRespOff(fe.id), cell); err != nil {
		return nil, err
	}
	if resp, ok := backend.DecodeRPCResponse(cell); ok {
		c.rpcSeq = resp.Seq
	}
	c.epoch, err = ep.Load64(backend.EpochOff)
	if err != nil {
		return nil, err
	}
	c.slab = alloc.NewTwoTier((*slabRPC)(c), int(layout.BlockSize))
	fe.conns[bk.ID()] = c
	return c, nil
}

// BackendID reports the remote node id.
func (c *Conn) BackendID() uint16 { return c.backendID }

// Layout returns the remote device layout.
func (c *Conn) Layout() backend.Layout { return c.layout }

// Endpoint exposes the raw verb interface (used by tests and recovery).
func (c *Conn) Endpoint() *rdma.Endpoint { return c.ep }

// Kick wakes the remote service loop.
func (c *Conn) Kick() { c.kick() }

// Frontend returns the owning node.
func (c *Conn) Frontend() *Frontend { return c.fe }

// rpc performs one ring RPC: write the request cell, kick, poll the
// response cell. Two round trips in the common case, exactly the RFP
// pattern of §5.1. The whole exchange is the retry/failover unit — a
// faulted request write, a dropped response, or a back-end death mid-call
// each re-drive the same sequence number, against the replacement node
// after a failover. Re-sending a sequence number is exactly-once: the
// back-end dedups by seq, and a stale duplicate finds its response
// already in the cell.
//
// The poll is bounded by simulated state only: it ends on the matching
// response, or when the node the request was written to has lost its
// service loop (crash, restart, promotion) — reported as a disconnect so
// the failover path re-drives the call. Host time never ends it: a
// descheduled back-end goroutine must not become a counted retry with
// backoff charged to the virtual clock.
func (c *Conn) rpc(op, a1, a2 uint64) (backend.RPCResponse, error) {
	c.rpcSeq++
	c.fe.st.RPCCalls.Add(1) // per call: a re-drive is a VerbRetry, not another RPC
	req := backend.EncodeRPCRequest(backend.RPCRequest{Seq: c.rpcSeq, Op: op, A1: a1, A2: a2})
	var resp backend.RPCResponse
	c.fe.tr.BeginArg(trace.KindRPC, op)
	defer c.fe.tr.End()
	err := c.do(func() error {
		if err := c.ep.Write(c.layout.RPCReqOff(c.fe.id), req); err != nil {
			return err
		}
		c.kick()
		cell := make([]byte, 64)
		for i := 0; ; i++ {
			// Sampled before the read: a loop seen dead here wrote any
			// response it was ever going to write before the read below.
			gone := !c.alive()
			var err error
			if i == 0 {
				// The response fetch costs one round trip; repeat polls are
				// quiet (see rdma.ReadQuiet) so host scheduling neither
				// inflates virtual time nor consumes fault-schedule
				// randomness.
				err = c.ep.Read(c.layout.RPCRespOff(c.fe.id), cell)
			} else {
				err = c.ep.ReadQuiet(c.layout.RPCRespOff(c.fe.id), cell)
			}
			if err != nil {
				return err
			}
			if r, ok := backend.DecodeRPCResponse(cell); ok && r.Seq == c.rpcSeq {
				resp = r
				return nil
			}
			if gone {
				return fmt.Errorf("%w: back-end %d stopped serving before RPC seq %d was answered",
					rdma.ErrDisconnected, c.backendID, c.rpcSeq)
			}
			runtime.Gosched()
		}
	})
	if err != nil {
		return backend.RPCResponse{}, err
	}
	return resp, nil
}

// Malloc allocates raw back-end blocks (rnvm_malloc through the ring).
func (c *Conn) Malloc(size uint64) (uint64, error) {
	resp, err := c.rpc(backend.RPCMalloc, size, 0)
	if err != nil {
		return 0, err
	}
	if resp.Status != backend.RPCOK {
		return 0, fmt.Errorf("core: malloc(%d) failed with status %d", size, resp.Status)
	}
	return resp.Result, nil
}

// Free releases raw back-end blocks (rnvm_free).
func (c *Conn) Free(addr, size uint64) error {
	resp, err := c.rpc(backend.RPCFree, addr, size)
	if err != nil {
		return err
	}
	if resp.Status != backend.RPCOK {
		return fmt.Errorf("core: free(%#x,%d) failed with status %d", addr, size, resp.Status)
	}
	return nil
}

// Alloc allocates size bytes through the two-tier allocator: sub-slab
// requests are served from front-end slab lists, large ones go straight
// to the back-end (§5.2).
func (c *Conn) Alloc(size int) (uint64, error) {
	c.fe.st.Allocs.Add(1)
	return c.slab.Alloc(size)
}

// Release frees an allocation made with Alloc.
func (c *Conn) Release(addr uint64, size int) error {
	c.fe.st.Frees.Add(1)
	return c.slab.Free(addr, size)
}

// slabRPC adapts the ring RPC to the allocator's SlabSource.
type slabRPC Conn

func (s *slabRPC) AllocSlab(n int) (uint64, error) { return (*Conn)(s).Malloc(uint64(n)) }
func (s *slabRPC) FreeSlab(addr uint64, n int) error {
	return (*Conn)(s).Free(addr, uint64(n))
}

// ReadEpoch re-reads the back-end incarnation counter; a change means the
// back-end restarted since connect (Case 3 of §7.2).
func (c *Conn) ReadEpoch() (uint64, error) { return c.epLoad64(backend.EpochOff) }

// SlotSN loads a naming slot's seqlock word. The replayer bumps it twice
// per applied transaction, so comparing the primary's and a mirror's
// values for the same slot yields the mirror's staleness in applied-
// transaction epochs: (primarySN - mirrorSN) / 2.
func (c *Conn) SlotSN(slot uint16) (uint64, error) {
	return c.epLoad64(c.layout.SNOff(slot))
}
