// Posted-verb pipeline: asynchronous issue, doorbell batching and a
// completion queue for the simulated fabric.
//
// The synchronous verbs in rdma.go charge a full round trip before the
// next verb may issue. Real one-sided RDMA does not work that way: the
// initiator posts work requests (WRs) to a send queue, rings the doorbell
// once for a whole batch, and later polls a completion queue. The fabric
// round trip overlaps with whatever the CPU does in between. This file
// models that with the endpoint's virtual clock:
//
//   - Post* appends a WR to the send queue and charges only Profile.WRIssue.
//   - Doorbell turns the queued WRs into one doorbell group. The group's
//     cost is one round trip plus the media latency and the bandwidth term
//     of the combined payload; its completion becomes *ready* at
//     issue-time + cost, but nothing is charged yet. Data movement (and
//     fault-hook consultation) happens here, in posted order, so
//     per-endpoint WAW ordering is independent of retirement order.
//   - Wait/Poll retire completions. Waiting charges only the remaining
//     gap max(0, readyAt - now): time the actor spent computing between
//     doorbell and wait is latency hidden, accumulated in
//     Stats.OverlapSavedNS.
//
// Completion queues are in-order per endpoint (RC QP semantics): group i
// retires before group i+1, and a group never becomes ready before its
// predecessor. Faults injected by the endpoint's hook surface at
// completion time through the WR's Completion.Err, never at post time,
// which is what lets PR 1's deterministic chaos replay keep working with
// verbs completing out of program order: the hook is still consulted
// exactly once per WR, in posted order.
package rdma

import (
	"fmt"
	"time"

	"asymnvm/internal/trace"
)

// Token identifies one posted work request. Tokens are endpoint-local
// and strictly increasing in post order.
type Token uint64

// Completion is the retired outcome of one posted work request.
type Completion struct {
	Token Token
	Op    Op
	Off   uint64 // offset of the WR's first segment
	N     int    // payload bytes across all segments
	Err   error  // nil on success; wraps ErrInjected / ErrDisconnected
}

// ReadOp is one element of a multi-get: a one-sided read of len(Buf)
// bytes at Off, posted as its own work request.
type ReadOp struct {
	Off uint64
	Buf []byte
}

// postedWR is a queued work request. A write WR may carry several
// segments (a vector write posted as one WR); a read WR has exactly one.
type postedWR struct {
	token Token
	op    Op
	segs  []WriteOp // write payload; caller-owned, must stay valid until retired
	buf   []byte    // read destination
	off   uint64
	n     int
	err   error
}

// doorbellGroup is a batch of WRs issued with one doorbell. Its readyAt
// is fixed at ring time; waiting on any of its WRs first waits out the
// group.
type doorbellGroup struct {
	wrs     []*postedWR
	cost    time.Duration // full fabric cost of the group
	readyAt time.Duration // virtual time its completions become pollable
}

// SetPipeline sets the send-queue depth cap (maximum in-flight WRs).
// Depth <= 1 keeps the endpoint effectively synchronous: each post rings
// the doorbell and the next post waits the previous completion out.
// Posting beyond the cap transparently rings the doorbell and retires the
// oldest group, so callers may post arbitrarily long batches.
func (e *Endpoint) SetPipeline(depth int) {
	if depth < 1 {
		depth = 1
	}
	e.pipeDepth = depth
}

// Outstanding reports the number of posted WRs not yet retired to the
// completion queue (send queue + rung doorbell groups).
func (e *Endpoint) Outstanding() int { return e.inflight }

// Rung reports whether tok's work request has left the send queue, i.e.
// a doorbell covering it has been rung (tokens increase in post order).
func (e *Endpoint) Rung(tok Token) bool {
	return len(e.sendQ) == 0 || tok < e.sendQ[0].token
}

// newWR takes a work-request header off the freelist (retireOldest and
// retargetFlush put them back) or allocates the pool's next one.
func (e *Endpoint) newWR() *postedWR {
	if n := len(e.wrFree); n > 0 {
		wr := e.wrFree[n-1]
		e.wrFree = e.wrFree[:n-1]
		return wr
	}
	return &postedWR{}
}

// freeWR recycles a retired WR header, dropping its payload references
// so caller-owned buffers are not pinned by the freelist.
func (e *Endpoint) freeWR(wr *postedWR) {
	*wr = postedWR{}
	e.wrFree = append(e.wrFree, wr)
}

// PostRead posts a one-sided read of len(buf) bytes at off and returns
// its completion token. buf is filled at Doorbell time; its contents are
// only meaningful once the token retires without error.
func (e *Endpoint) PostRead(off uint64, buf []byte) Token {
	wr := e.newWR()
	wr.op, wr.buf, wr.off, wr.n = OpRead, buf, off, len(buf)
	return e.post(wr)
}

// PostWrite posts a one-sided persistent write as a single-segment WR.
func (e *Endpoint) PostWrite(off uint64, data []byte) Token {
	return e.PostWriteV([]WriteOp{{Off: off, Data: data}})
}

// PostWriteV posts a vector write as ONE work request: all segments
// travel together and complete together, exactly like the synchronous
// WriteV, but asynchronously. The segment buffers are caller-owned and
// must stay valid until the token retires.
func (e *Endpoint) PostWriteV(ops []WriteOp) Token {
	n := 0
	off := uint64(0)
	if len(ops) > 0 {
		off = ops[0].Off
	}
	for _, op := range ops {
		n += len(op.Data)
	}
	wr := e.newWR()
	wr.op, wr.segs, wr.off, wr.n = OpWrite, ops, off, n
	return e.post(wr)
}

func (e *Endpoint) post(wr *postedWR) Token {
	e.reserveSlot()
	e.nextToken++
	wr.token = e.nextToken
	e.sendQ = append(e.sendQ, wr)
	e.inflight++
	e.clk.Advance(e.prof.WRIssue)
	e.tr.Charge(trace.KindPost, e.prof.WRIssue)
	e.st.PostedVerbs.Add(1)
	e.st.QueueDepthSum.Add(int64(e.inflight))
	return wr.token
}

// reserveSlot enforces the queue-depth cap before a new WR is admitted.
func (e *Endpoint) reserveSlot() {
	cap := e.pipeDepth
	if cap < 1 {
		cap = 1
	}
	for e.inflight >= cap {
		if len(e.sendQ) > 0 {
			e.Doorbell()
			continue
		}
		e.retireOldest()
	}
}

// Doorbell rings the doorbell for every WR posted since the last ring,
// forming one doorbell group. The group's data movement happens now, in
// posted order — so a later synchronous verb or posted group observes
// these writes — while the completion cost is charged lazily at
// Wait/Poll time. One round trip is paid per group, not per WR.
func (e *Endpoint) Doorbell() {
	if len(e.sendQ) == 0 {
		return
	}
	// Recycle a group header and swap slices: the group takes the send
	// queue's backing array, the send queue inherits the recycled group's
	// empty one. Steady state cycles the same two arrays forever.
	var g *doorbellGroup
	if n := len(e.groupFree); n > 0 {
		g = e.groupFree[n-1]
		e.groupFree = e.groupFree[:n-1]
	} else {
		g = &doorbellGroup{}
	}
	wrs := e.sendQ
	e.sendQ = g.wrs[:0]

	var (
		extraDelay time.Duration
		firstErr   error
		readBytes  int64
		writeBytes int64
		anyWrite   bool
	)
	for _, wr := range wrs {
		// Traffic is counted for every WR, like the synchronous verbs
		// count bytes before consulting the fault hook: the payload was
		// put on the wire whether or not it was acknowledged.
		if wr.op == OpRead {
			readBytes += int64(wr.n)
		} else {
			writeBytes += int64(wr.n)
			anyWrite = true
		}
		if firstErr != nil {
			// RC QP: after one WR fails, the queue pair flushes the
			// rest with the same fate, without touching the target or
			// consuming fault randomness.
			wr.err = fmt.Errorf("%w (flushed after earlier failure in doorbell group)", firstErr)
			continue
		}
		e.execWR(wr, &extraDelay)
		if wr.err != nil {
			firstErr = wr.err
		}
	}

	total := int(readBytes + writeBytes)
	cost := e.prof.RDMARTT + e.prof.NetTransfer(total) + e.prof.NVMTransfer(total) + extraDelay
	if anyWrite {
		cost += e.prof.NVMWrite
	} else {
		cost += e.prof.NVMRead
	}
	readyAt := e.clk.Now() + cost
	if last, ok := e.groups.Back(); ok && last.readyAt > readyAt {
		readyAt = last.readyAt // in-order CQ: no overtaking
	}
	g.wrs, g.cost, g.readyAt = wrs, cost, readyAt
	e.groups.PushBack(g)

	// One doorbell group is one network round trip, whatever its size.
	e.tr.Event(trace.KindDoorbell, uint64(total))
	e.tr.CountVerb()
	e.st.DoorbellGroups.Add(1)
	if anyWrite {
		e.st.RDMAWrite.Add(1)
	} else {
		e.st.RDMARead.Add(1)
	}
	e.st.BytesRead.Add(readBytes)
	e.st.BytesWrite.Add(writeBytes)
}

// execWR performs one WR's data movement against the target, consulting
// the fault hook exactly like the synchronous verbs do (once per read,
// once per write segment, stopping at the first failure). Hook delays
// accumulate into the group cost instead of advancing the clock inline.
func (e *Endpoint) execWR(wr *postedWR, extraDelay *time.Duration) {
	consult := func(op Op, off uint64, n int) (int, error) {
		if e.fault == nil {
			return 0, nil
		}
		f := e.fault(op, off, n)
		if f.Delay > 0 {
			*extraDelay += f.Delay
		}
		if f.Err == nil {
			return 0, nil
		}
		return f.Truncate, fmt.Errorf("%w: op=%v off=%d n=%d", f.Err, op, off, n)
	}

	if wr.op == OpRead {
		if _, err := consult(OpRead, wr.off, wr.n); err != nil {
			wr.err = err
			return
		}
		wr.err = e.t.dev.ReadAt(wr.off, wr.buf)
		return
	}
	for _, seg := range wr.segs {
		trunc, err := consult(OpWrite, seg.Off, len(seg.Data))
		if err != nil {
			if trunc > 0 && trunc <= len(seg.Data) {
				_ = e.t.dev.WriteAt(seg.Off, seg.Data[:trunc])
			}
			wr.err = err
			return
		}
		// Seal each segment: ranged WritePersist durability means the
		// last segment's ack no longer covers the earlier ones. A
		// fault-truncated prefix above stays volatile on purpose.
		if err := e.t.dev.WritePersist(seg.Off, seg.Data); err != nil {
			wr.err = err
			return
		}
	}
}

// retireOldest waits the oldest doorbell group out and moves its WRs to
// the completion queue. The clock is charged only the remaining gap to
// the group's ready time; cost already hidden behind the actor's own
// work is recorded as overlap savings.
func (e *Endpoint) retireOldest() {
	g, ok := e.groups.PopFront()
	if !ok {
		return
	}
	if e.win != nil {
		e.win.serial += g.cost
	}
	now := e.clk.Now()
	wait := g.readyAt - now
	if wait > 0 {
		e.clk.Advance(wait)
		e.tr.Charge(trace.KindRetireWait, wait)
		e.tr.Event(trace.KindOverlapSaved, uint64(g.cost-wait))
		e.st.OverlapSavedNS.Add(int64(g.cost - wait))
	} else {
		e.tr.Event(trace.KindOverlapSaved, uint64(g.cost))
		e.st.OverlapSavedNS.Add(int64(g.cost))
	}
	for i, wr := range g.wrs {
		e.inflight--
		e.cq.PushBack(Completion{Token: wr.token, Op: wr.op, Off: wr.off, N: wr.n, Err: wr.err})
		e.freeWR(wr)
		g.wrs[i] = nil
	}
	g.wrs = g.wrs[:0]
	e.groupFree = append(e.groupFree, g)
}

// Poll retires every doorbell group that is already ready at the current
// virtual time — charging nothing — and returns the drained completion
// queue (including completions retired earlier by Wait's group draining
// but not yet consumed). Completions are in posted order. The returned
// slice is reused by the next Poll: consume it before calling again.
func (e *Endpoint) Poll() []Completion {
	now := e.clk.Now()
	for {
		g, ok := e.groups.Front()
		if !ok || g.readyAt > now {
			break
		}
		e.retireOldest()
	}
	out := append(e.pollBuf[:0], e.cqSkip...)
	e.cqSkip = e.cqSkip[:0]
	for {
		c, ok := e.cq.PopFront()
		if !ok {
			break
		}
		out = append(out, c)
	}
	e.pollBuf = out
	return out
}

// Wait blocks (in virtual time) until the WR identified by tok retires,
// consumes its completion, and returns its error. Preceding groups are
// waited out first — the CQ is in-order — and their completions stay
// queued for their own waiters. If tok is still in the send queue the
// doorbell is rung first.
func (e *Endpoint) Wait(tok Token) error {
	for {
		// Tokens are waited on out of posted order, but the CQ ring pops
		// front-only; completions popped past on the way to tok are
		// stashed (still in posted order) and re-delivered to their own
		// waiters — or to Poll — first.
		for i, c := range e.cqSkip {
			if c.Token == tok {
				e.cqSkip = append(e.cqSkip[:i], e.cqSkip[i+1:]...)
				return c.Err
			}
		}
		for {
			c, ok := e.cq.PopFront()
			if !ok {
				break
			}
			if c.Token == tok {
				return c.Err
			}
			e.cqSkip = append(e.cqSkip, c)
		}
		if e.groups.Len() == 0 {
			if len(e.sendQ) == 0 {
				return fmt.Errorf("rdma: wait on unknown or already-consumed token %d", tok)
			}
			e.Doorbell()
			continue
		}
		e.retireOldest()
	}
}

// Drain rings the doorbell, waits out every in-flight group, and clears
// the completion queue, returning the first error among the discarded
// completions (in posted order). Only a caller that owns every
// outstanding token may use it; Handle-level code uses per-token Wait.
func (e *Endpoint) Drain() error {
	e.Doorbell()
	for e.groups.Len() > 0 {
		e.retireOldest()
	}
	var first error
	for _, c := range e.cqSkip {
		if c.Err != nil && first == nil {
			first = c.Err
		}
	}
	e.cqSkip = e.cqSkip[:0]
	for {
		c, ok := e.cq.PopFront()
		if !ok {
			break
		}
		if c.Err != nil && first == nil {
			first = c.Err
		}
	}
	return first
}

// fenceOrder is called by every synchronous verb before it executes: any
// posted-but-not-rung WRs are issued first so the device observes them
// in program order. It does not wait for completions — execution order
// is established at doorbell time, and the in-flight groups' latency
// keeps overlapping with the synchronous verb's own round trip.
func (e *Endpoint) fenceOrder() {
	if len(e.sendQ) > 0 {
		e.Doorbell()
	}
}

// retargetFlush fails every in-flight WR with ErrDisconnected and moves
// it to the completion queue without charging the clock: the queue pair
// died, so pending completions are flushed, not delivered. Executed WRs
// may have landed on the old target, but their ack was lost — callers
// re-issue idempotently on the new target. The fault hook is NOT
// consulted (no randomness consumed).
func (e *Endpoint) retargetFlush() {
	flush := func(wr *postedWR) {
		e.inflight--
		e.cq.PushBack(Completion{
			Token: wr.token, Op: wr.op, Off: wr.off, N: wr.n,
			Err: fmt.Errorf("%w: op=%v off=%d n=%d (flushed by retarget)", ErrDisconnected, wr.op, wr.off, wr.n),
		})
		e.freeWR(wr)
	}
	for {
		g, ok := e.groups.PopFront()
		if !ok {
			break
		}
		for i, wr := range g.wrs {
			flush(wr)
			g.wrs[i] = nil
		}
		g.wrs = g.wrs[:0]
		e.groupFree = append(e.groupFree, g)
	}
	for i, wr := range e.sendQ {
		flush(wr)
		e.sendQ[i] = nil
	}
	e.sendQ = e.sendQ[:0]
}
