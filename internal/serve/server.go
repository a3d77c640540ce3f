package serve

import (
	"errors"
	"net"
	"sync"
	"time"

	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/ring"
	"asymnvm/internal/trace"
	"asymnvm/internal/txapp"
)

// Backends are the structures the server operates. The front-end and
// both structures are owned by the server's executor goroutine from
// Start onward (SWMR discipline: exactly one operating goroutine), so
// callers must not touch them until Close returns.
type Backends struct {
	FE   *core.Frontend
	KV   *ds.HashTable    // get/put/getmulti/putmulti target
	Bank *txapp.SmallBank // tx target (nil disables OpTx)

	// MirrorKV, when non-nil, is a reader instance of the same structure
	// opened over an NVM mirror replica (cluster.NewMirrorFrontend). A
	// Get/GetMulti whose StaleBudget covers the mirror's current lag is
	// served from it instead of the primary; writes, transactions, and
	// zero-budget reads always go to the primary. The executor goroutine
	// owns it like the other backends.
	MirrorKV *ds.HashTable
}

// Options tunes the serving plane.
type Options struct {
	Admission AdmissionConfig
	QueueCap  int
	LIFOFrac  float64 // run-queue occupancy fraction where LIFO starts

	// SlowWrite bounds (host time) one response write to a client. A
	// client that cannot drain its socket within it — or whose outbound
	// buffer overflows — is dropped, so one slow reader never stalls the
	// executor or other tenants.
	SlowWrite   time.Duration
	OutboundCap int // per-connection response buffer (frames)
}

// DefaultOptions returns a serving configuration sized for tests and
// the chaos soak: generous quotas, a modest queue, fast slow-client
// cutoff.
func DefaultOptions() Options {
	return Options{
		QueueCap:    256,
		LIFOFrac:    0.5,
		SlowWrite:   2 * time.Second,
		OutboundCap: 64,
	}
}

// CapacityFromAutoTune derives the global concurrency capacity from the
// front-end's autotune depth gauge: the deeper the pipeline the fabric
// currently sustains, the more concurrent requests admission lets in.
func CapacityFromAutoTune(fe *core.Frontend, perDepth int) func() int {
	if perDepth <= 0 {
		perDepth = 8
	}
	return func() int {
		d := int(fe.Stats().AutoTuneDepth.Load())
		if d <= 0 {
			return DefaultCapacity
		}
		return d * perDepth
	}
}

// Server is the networked front-end service.
type Server struct {
	opts Options
	b    Backends
	adm  *Admission
	q    *RunQueue

	ln   net.Listener
	wake *ring.Doorbell
	// Who owns a request's bytes (DESIGN.md): an item from the decode of its
	// frame to the reply, a frame from its encode until it is written.
	items  freeList[*Item]
	frames freeList[[]byte]
	poison bool // tests: overwrite what goes back to either list
	done   chan struct{}
	wg     sync.WaitGroup
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// New assembles a server over the given backends. When no CapacityFn is
// configured, capacity follows the front-end's autotune depth.
func New(b Backends, opts Options) *Server {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 256
	}
	if opts.OutboundCap <= 0 {
		opts.OutboundCap = 64
	}
	if opts.SlowWrite <= 0 {
		opts.SlowWrite = 2 * time.Second
	}
	if opts.Admission.CapacityFn == nil {
		opts.Admission.CapacityFn = CapacityFromAutoTune(b.FE, 8)
	}
	return &Server{
		opts:   opts,
		b:      b,
		adm:    NewAdmission(opts.Admission),
		q:      NewRunQueue(opts.QueueCap, opts.LIFOFrac),
		wake:   ring.NewDoorbell(),
		items:  freeList[*Item]{free: make([]*Item, 0, opts.QueueCap)},
		frames: freeList[[]byte]{free: make([][]byte, 0, opts.QueueCap)},
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// freeList is a bounded stack of recycled values the tier's goroutines
// share: typed, so nothing is boxed on its way in, and last-in-first-out, so
// what is taken next is what was warm last. Its capacity is the bound: put
// drops what does not fit.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		var zero T
		v, ok = l.free[n-1], true
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	return v, ok
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, v)
	}
}

// minFrameCap keeps a small first response from seeding the frame list with
// capacities the first get reply would have to replace.
const minFrameCap = 512

// frame returns an empty wire frame with room for n bytes.
func (s *Server) frame(n int) []byte {
	if b, ok := s.frames.get(); ok && cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, max(n, minFrameCap))
}

// recycle takes a frame back once no goroutine reads it any more.
func (s *Server) recycle(b []byte) {
	s.scrub(b[:cap(b)])
	s.frames.put(b)
}

// release takes an item back, after its reply: the response's bytes may lie
// in it.
func (s *Server) release(it *Item) {
	s.scrub(it.Req.Val)
	for _, v := range it.Req.Vals {
		s.scrub(v)
	}
	s.scrub(it.val[:cap(it.val)])
	it.Reply = nil
	it.vals.Reset()
	s.items.put(it)
}

// scrub is the tests' hook: with poison set, what goes back to a free list is
// overwritten at once, so a reply or an executor that still reads it fails an
// oracle instead of passing by luck.
func (s *Server) scrub(b []byte) {
	if s.poison {
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// Admission exposes the admission plane (the simulator and tests reuse
// it directly).
func (s *Server) Admission() *Admission { return s.adm }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// begins serving. The executor goroutine takes ownership of the
// backends here.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(2)
	go s.acceptLoop()
	go s.executor()
	return nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, severs every connection, and stops the
// executor. After Close returns the backends are the caller's again.
func (s *Server) Close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	close(s.done)
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(nc)
	}
}

func (s *Server) dropConn(nc net.Conn) {
	s.connMu.Lock()
	delete(s.conns, nc)
	s.connMu.Unlock()
	nc.Close()
}

// handleConn runs one connection: a reader loop in this goroutine and a
// bounded writer goroutine. Responses (from admission rejections here
// and from the executor) are encoded straight into recycled pre-framed
// buffers — the server's typed frame list: a frame is its reply's from the
// encode until the writer has written it — and funnel through a lock-free
// MPSC ring; a full ring or a write running past SlowWrite marks the client
// slow and drops it — the executor never blocks on a socket. The ring's close semantics make
// the teardown race benign: a reply racing the reader's exit just fails
// its Push and recycles the frame, so no mutex guards the hot path.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	out := ring.NewMPSC[[]byte](s.opts.OutboundCap)
	bell := ring.NewDoorbell()
	var once sync.Once
	drop := func(slow bool) {
		once.Do(func() {
			if slow {
				s.b.FE.Stats().ServeSlowDrop.Add(1)
			}
			s.dropConn(nc)
		})
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for {
			buf, ok := out.Pop()
			if !ok {
				if out.Closed() {
					if buf, ok = out.Pop(); !ok { // final drain: Push may race Close
						return
					}
				} else {
					// No abort channel: the reader always closes the ring and
					// rings the bell on its way out, including server Close
					// (which severs the conn under the reader first).
					if !bell.Poll() {
						bell.Park(nil, nil)
					}
					continue
				}
			}
			nc.SetWriteDeadline(time.Now().Add(s.opts.SlowWrite))
			_, err := nc.Write(buf) // frame prefix + payload in one write
			s.recycle(buf)
			if err != nil {
				slow := false
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					slow = true
				}
				drop(slow)
				// Keep draining (and recycling) until the reader closes the
				// ring, so late replies from queued items are still consumed.
			}
		}
	}()
	reply := func(r Response) {
		buf, err := r.AppendFramed(s.frame(4 + r.EncodedLen()))
		if err != nil {
			s.recycle(buf)
			drop(false)
			return
		}
		if !out.Push(buf) {
			// Ring full (client not draining) or connection torn down.
			s.recycle(buf)
			drop(true)
			return
		}
		bell.Ring()
	}
	var rbuf []byte
	for {
		payload, err := ReadFrameInto(nc, rbuf)
		if err != nil {
			break
		}
		if cap(payload) > cap(rbuf) {
			rbuf = payload[:0]
		}
		// accept's decode detaches all value bytes from payload, so the read
		// buffer is safe to reuse even though items are queued.
		s.accept(payload, reply)
	}
	drop(false)
	out.Close()
	bell.Ring() // wake the writer so it observes the close
	wwg.Wait()
	// Recycle whatever the writer left behind (it exits on the first
	// empty+closed observation; a straggling reply may still have pushed).
	for {
		buf, ok := out.Pop()
		if !ok {
			break
		}
		s.recycle(buf)
	}
}

// accept decodes one request payload into a recycled item and routes it.
func (s *Server) accept(payload []byte, reply func(Response)) {
	it, ok := s.items.get()
	if !ok {
		it = new(Item)
	}
	if err := DecodeRequestInto(&it.Req, payload, &it.vals); err != nil {
		s.release(it)
		reply(Response{Status: StatusBadRequest})
		return
	}
	it.Reply = reply
	if !s.route(it) {
		s.release(it)
	}
}

// route admits one request, reporting whether the run queue took the item:
// one it did not take has been answered. Time is the writer's virtual clock:
// queue deadlines are measured in the same units the core charges latency
// to, so a request behind an expensive queue prefix sees that cost against
// its budget.
func (s *Server) route(it *Item) bool {
	st, req := s.b.FE.Stats(), &it.Req
	if req.Op == OpPing {
		it.Reply(Response{Status: StatusOK, ID: req.ID})
		return false
	}
	now := s.b.FE.Clock().Now()
	dec := s.adm.Admit(req.Tenant, now)
	if !dec.Admit {
		if dec.Status == StatusBreaker {
			st.ServeBreaker.Add(1)
		} else {
			st.ServeRejected.Add(1)
		}
		it.Reply(Response{Status: dec.Status, ID: req.ID, RetryAfterNS: dec.RetryAfterNS})
		return false
	}
	it.Read = req.Op == OpGet || req.Op == OpGetMulti
	it.ArrivedAt, it.DeadlineAt = now, 0
	if req.BudgetNS > 0 {
		it.DeadlineAt = now + time.Duration(req.BudgetNS)
	}
	if !s.q.Push(it) {
		s.adm.Done()
		st.ServeRejected.Add(1)
		it.Reply(Response{Status: StatusOverload, ID: req.ID, RetryAfterNS: s.adm.retryAfter(s.opts.Admission.RetryAfterMin)})
		return false
	}
	st.ServeAccepted.Add(1)
	s.wake.Ring()
	return true
}

// Inline serves one request payload on the caller's goroutine — the reader's
// decode and admission, the run queue, the executor's exec, the reply — with
// no socket and no goroutine between them. It is for a server that was not
// Started: the caller is its executor.
func (s *Server) Inline(payload []byte, reply func(Response)) {
	s.accept(payload, reply)
	s.drain()
}

// drain runs what is queued.
func (s *Server) drain() {
	for it := s.q.Pop(); it != nil; it = s.q.Pop() {
		s.exec(it)
	}
}

// executor is the single goroutine operating the writer front-end and
// its structures. It polls the doorbell between queue drains and parks
// only when idle, so a loaded server never round-trips the scheduler
// between requests.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		if !s.wake.Poll() {
			if s.wake.Park(s.done, nil) == 0 {
				return
			}
		}
		select {
		case <-s.done:
			return
		default:
		}
		s.drain()
	}
}

// exec runs one admitted request. Expired-in-queue requests are shed
// without touching the fabric. For reads the deadline stays armed
// through the verbs (the core retry loop short-circuits and clamps
// backoff to the remainder); writes and transactions check the budget
// before starting but then run to completion unarmed — aborting a
// half-applied mutation would tear the structure's session state, so
// the deadline decides whether work starts, not whether it finishes.
func (s *Server) exec(it *Item) {
	fe, st := s.b.FE, s.b.FE.Stats()
	defer s.release(it) // runs last: the response's value may be staged in the item
	defer s.adm.Done()
	now := fe.Clock().Now()
	if it.DeadlineAt > 0 && now >= it.DeadlineAt {
		st.ServeExpired.Add(1)
		it.Reply(Response{Status: StatusDeadline, ID: it.Req.ID})
		return
	}
	if it.DeadlineAt > 0 && it.Read {
		fe.SetDeadline(it.DeadlineAt)
		defer fe.ClearDeadline()
	}
	resp := s.execOp(it)
	resp.ID = it.Req.ID
	it.Reply(resp)
}

// mirrorSource decides whether a read with the given staleness budget
// may be served from the mirror replica: the mirror's lag for the
// structure's slot — half the seqlock SN gap, i.e. applied transactions
// behind the primary — must not exceed the budget. The lag is probed at
// serve time, so a served read never observes an epoch older than the
// budget the client declared.
func (s *Server) mirrorSource(staleBudget uint32) (*ds.HashTable, uint64, bool) {
	if s.b.MirrorKV == nil || staleBudget == 0 {
		return nil, 0, false
	}
	slot := s.b.KV.Handle().Slot()
	psn, err := s.b.KV.Handle().Conn().SlotSN(slot)
	if err != nil {
		return nil, 0, false
	}
	msn, err := s.b.MirrorKV.Handle().Conn().SlotSN(slot)
	if err != nil {
		return nil, 0, false
	}
	var lag uint64
	if psn > msn {
		lag = (psn - msn) / 2
	}
	if lag > uint64(staleBudget) {
		return nil, 0, false
	}
	return s.b.MirrorKV, lag, true
}

// countMirrorRead records one mirror-served read on the primary
// front-end's ledgers (the mirror front-end has its own clock).
func (s *Server) countMirrorRead(lag uint64) {
	st := s.b.FE.Stats()
	st.MirrorReads.Add(1)
	st.MirrorStaleEpochs.Add(int64(lag))
	s.b.FE.Tracer().Event(trace.KindMirrorRead, lag)
}

// get looks the item's key up in kv, staging the value in the item.
func (it *Item) get(kv *ds.HashTable) (Response, error) {
	v, found, err := kv.GetInto(it.Req.Key, it.val[:0])
	it.val = v
	return Response{Status: StatusOK, Found: found, Val: v}, err
}

// execOp runs the item's request. A get's value lies in the item and a
// multi-get's in the table (ds.HashTable.GetMulti): good for the reply that
// follows at once.
func (s *Server) execOp(it *Item) Response {
	req := &it.Req
	switch req.Op {
	case OpGet:
		if kv, lag, ok := s.mirrorSource(req.StaleBudget); ok {
			if resp, err := it.get(kv); err == nil {
				s.countMirrorRead(lag)
				return resp
			}
			// A failed mirror read falls back to the primary below.
		}
		resp, err := it.get(s.b.KV)
		if err != nil {
			return errResponse(err)
		}
		return resp
	case OpPut:
		if err := s.b.KV.Put(req.Key, req.Val); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpGetMulti:
		if kv, lag, ok := s.mirrorSource(req.StaleBudget); ok {
			if vals, founds, err := kv.GetMulti(req.Keys); err == nil {
				s.countMirrorRead(lag)
				return Response{Status: StatusOK, Founds: founds, Vals: vals}
			}
		}
		vals, founds, err := s.b.KV.GetMulti(req.Keys)
		if err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK, Founds: founds, Vals: vals}
	case OpPutMulti:
		if err := s.b.KV.PutMulti(req.Keys, req.Vals); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpTx:
		if s.b.Bank == nil {
			return Response{Status: StatusBadRequest}
		}
		if err := s.b.Bank.DoTx(req.TxR); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	case OpDrain:
		if s.b.Bank != nil {
			if err := s.b.Bank.Table().Drain(); err != nil {
				return errResponse(err)
			}
		}
		if err := s.b.KV.Flush(); err != nil {
			return errResponse(err)
		}
		if err := s.b.KV.Drain(); err != nil {
			return errResponse(err)
		}
		return Response{Status: StatusOK}
	default:
		return Response{Status: StatusBadRequest}
	}
}

// movedRetryNS is the retry hint attached to StatusMoved. A moved
// partition resolves on the server's next routed operation (the epoch
// fence re-reads the mapping table and re-opens the children), so the
// client only needs to outwait that one refresh, not a migration.
const movedRetryNS = 200_000

func errResponse(err error) Response {
	if errors.Is(err, core.ErrDeadlineExceeded) {
		return Response{Status: StatusDeadline}
	}
	if errors.Is(err, core.ErrMoved) {
		return Response{Status: StatusMoved, RetryAfterNS: movedRetryNS}
	}
	return Response{Status: StatusError, Val: []byte(err.Error())}
}
