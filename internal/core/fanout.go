package core

import (
	"asymnvm/internal/rdma"
	"asymnvm/internal/trace"
)

// Cross-backend fan-out orchestration: the handle-level posted variants
// of ReadMulti and Flush. A caller holding handles on several back-ends
// brackets a scatter/gather episode with Frontend.BeginFanout, posts work
// on every connection (PostReadMulti / FlushAsync), and only then settles
// the pending results — so the doorbell groups on the different links fly
// concurrently and the episode costs max-over-backends instead of
// sum-over-backends. The fault story is unchanged: completions surface
// per connection, and a faulted group is re-driven synchronously through
// the connection's retry/failover policy, exactly like the async op-log
// flush settled at EndOp.

// Fanout brackets a cross-backend fan-out accounting window (see
// rdma/fanout.go). A zero Fanout is valid and inert.
type Fanout struct {
	w *rdma.FanoutWindow
}

// BeginFanout opens a fan-out window over the given connections'
// endpoints (duplicates and nils are skipped). All connections must
// belong to this front-end — they share its virtual clock.
func (fe *Frontend) BeginFanout(conns ...*Conn) *Fanout {
	var eps []*rdma.Endpoint
	seen := make(map[*rdma.Endpoint]bool, len(conns))
	for _, c := range conns {
		if c == nil || seen[c.ep] {
			continue
		}
		seen[c.ep] = true
		eps = append(eps, c.ep)
	}
	return &Fanout{w: rdma.BeginFanout(fe.st, eps...)}
}

// End closes the window and credits the cross-connection savings.
func (f *Fanout) End() {
	if f != nil {
		f.w.End()
	}
}

// PendingReads is an in-flight multi-get posted by PostReadMulti. Its
// results become valid only after Settle returns nil.
type PendingReads struct {
	h         *Handle
	out       [][]byte
	addrs     []uint64
	missIdx   []int
	ops       []rdma.ReadOp
	toks      []rdma.Token
	cacheable bool
	posted    bool
}

// PostReadMulti is the posted half of ReadMulti: overlay and cache hits
// are resolved inline, and the misses are posted as one doorbell group on
// this handle's connection WITHOUT waiting for completion, so the caller
// may post on other connections before settling any of them. On a
// connection without the pipeline the reads are performed synchronously
// and Settle just hands the results over. Results index-match addrs after
// Settle.
func (h *Handle) PostReadMulti(addrs []uint64, n int, cacheable bool) (*PendingReads, error) {
	if !h.c.pipelined() {
		out, err := h.ReadMulti(nil, addrs, n, cacheable)
		if err != nil {
			return nil, err
		}
		return &PendingReads{out: out}, nil
	}
	fe := h.c.fe
	p := &PendingReads{h: h, cacheable: cacheable, out: make([][]byte, len(addrs)), addrs: addrs}
	for i, addr := range addrs {
		view, ok, err := h.local(addr, n, cacheable)
		if err != nil {
			return nil, err
		}
		if ok {
			p.out[i] = append([]byte(nil), view...)
			continue
		}
		off, err := h.devOff(addr)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		p.out[i] = buf
		p.missIdx = append(p.missIdx, i)
		p.ops = append(p.ops, rdma.ReadOp{Off: off, Buf: buf})
	}
	if len(p.ops) == 0 {
		return p, nil
	}
	p.posted = true
	fe.tr.BeginArg(trace.KindFetch, uint64(len(p.ops)))
	p.toks = make([]rdma.Token, len(p.ops))
	for i, op := range p.ops {
		p.toks[i] = h.c.ep.PostRead(op.Off, op.Buf)
	}
	h.c.ep.Doorbell()
	fe.tr.End()
	return p, nil
}

// Settle waits the posted reads out and returns the results. A faulted
// completion re-drives the whole miss set synchronously through the
// retry/failover policy — re-posting one-sided reads is idempotent.
func (p *PendingReads) Settle() ([][]byte, error) {
	if p == nil {
		return nil, nil
	}
	if !p.posted {
		return p.out, nil
	}
	p.posted = false
	h := p.h
	fe := h.c.fe
	var failed bool
	for _, tok := range p.toks {
		if h.c.ep.Wait(tok) != nil {
			failed = true
		}
	}
	if failed {
		fe.st.VerbRetries.Add(1)
		if err := h.c.epReadV(p.ops); err != nil {
			return nil, err
		}
	}
	for _, i := range p.missIdx {
		h.fill(p.addrs[i], p.out[i], p.cacheable)
	}
	return p.out, nil
}

// FlushAsync is the posted half of Flush: the same fused commit vector
// under one doorbell, but not waited for, so flushes on other back-ends
// can be posted before any of them is settled. On a connection without
// the pipeline the flush is synchronous and the returned PendingFlush is
// already settled.
func (h *Handle) FlushAsync() (*PendingFlush, error) {
	pf, err := h.commit(nil, true)
	if err != nil {
		return nil, err
	}
	return &pf, nil
}
