package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"asymnvm/internal/clock"
	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/fault"
	"asymnvm/internal/txapp"
	"asymnvm/internal/workload"
)

func dsOpts() ds.Options {
	return ds.Options{
		Buckets: 1 << 10,
		Create:  core.CreateOptions{MemLogSize: 32 << 20, OpLogSize: 8 << 20},
	}
}

// rig is one cluster with a writer front-end and both served structures.
type rig struct {
	clu  *cluster.Cluster
	fe   *core.Frontend
	kv   *ds.HashTable
	bank *txapp.SmallBank
}

func newRig(t *testing.T) *rig { return newRigValueCap(t, 0) }

func newRigValueCap(t *testing.T, valueCap int) *rig {
	return newRigMode(t, core.Mode{OpLog: true, Batch: 4, Pipeline: 8}, valueCap)
}

func newRigMode(t *testing.T, mode core.Mode, valueCap int) *rig {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.DeviceBytes = 128 << 20
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Stop)
	fe, conns, err := clu.NewFrontend(1, mode)
	if err != nil {
		t.Fatal(err)
	}
	kvOpts := dsOpts()
	kvOpts.ValueCap = valueCap
	kv, err := ds.CreateHashTable(conns[0], "serve-kv", kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := txapp.NewSmallBank(conns[0], "serve-bank", 64, dsOpts())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clu: clu, fe: fe, kv: kv, bank: bank}
}

func (r *rig) backends() Backends { return Backends{FE: r.fe, KV: r.kv, Bank: r.bank} }

func startServer(t *testing.T, r *rig, opts Options) *Server {
	t.Helper()
	s := New(r.backends(), opts)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server, tenant uint16) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// ---- codec ----

func TestProtoRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, ID: 7, Tenant: 3, BudgetNS: 5000, Key: 42, StaleBudget: 6},
		{Op: OpPut, ID: 8, Key: 42, Val: []byte("hello")},
		{Op: OpGetMulti, ID: 9, Keys: []uint64{1, 2, 3}},
		{Op: OpPutMulti, ID: 10, Keys: []uint64{4, 5}, Vals: [][]byte{[]byte("a"), []byte("bb")}},
		{Op: OpTx, ID: 11, TxR: 123456},
		{Op: OpDrain, ID: 12},
		{Op: OpPing, ID: 13},
	}
	for _, want := range reqs {
		buf := want.Encode()
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("op %d: decode: %v", want.Op, err)
		}
		if got.Op != want.Op || got.ID != want.ID || got.Tenant != want.Tenant ||
			got.BudgetNS != want.BudgetNS || got.StaleBudget != want.StaleBudget ||
			got.Key != want.Key || got.TxR != want.TxR {
			t.Fatalf("op %d: got %+v want %+v", want.Op, got, want)
		}
		if !bytes.Equal(got.Val, want.Val) || len(got.Keys) != len(want.Keys) || len(got.Vals) != len(want.Vals) {
			t.Fatalf("op %d: payload mismatch: %+v vs %+v", want.Op, got, want)
		}
	}
	resps := []Response{
		{Status: StatusOK, ID: 7, Found: true, Val: []byte("v")},
		{Status: StatusNotFound, ID: 8},
		{Status: StatusOverload, ID: 9, RetryAfterNS: 77},
		{Status: StatusOK, ID: 10, Founds: []bool{true, false}, Vals: [][]byte{[]byte("x"), nil}},
	}
	for _, want := range resps {
		got, err := DecodeResponse(want.Encode())
		if err != nil {
			t.Fatalf("status %d: decode: %v", want.Status, err)
		}
		if got.Status != want.Status || got.ID != want.ID || got.RetryAfterNS != want.RetryAfterNS ||
			got.Found != want.Found || !bytes.Equal(got.Val, want.Val) || len(got.Founds) != len(want.Founds) {
			t.Fatalf("status %d: got %+v want %+v", want.Status, got, want)
		}
	}
}

func TestProtoRejectsCorruption(t *testing.T) {
	buf := (&Request{Op: OpPut, Key: 1, Val: []byte("x")}).Encode()
	if _, err := DecodeRequest(buf[:3]); !errors.Is(err, ErrShort) {
		t.Fatalf("short: got %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: got %v", err)
	}
	bad = append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("crc: got %v", err)
	}
}

// ---- admission ----

func TestTokenBucketAdmitsBurstThenRefills(t *testing.T) {
	a := NewAdmission(AdmissionConfig{
		DefaultQuota:  TenantQuota{Rate: 1000, Burst: 3}, // 1 token per ms
		RetryAfterMin: time.Microsecond,
	})
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		if dec := a.Admit(1, now); !dec.Admit {
			t.Fatalf("burst admit %d rejected", i)
		}
		a.Done()
	}
	dec := a.Admit(1, now)
	if dec.Admit || dec.Status != StatusOverload || dec.RetryAfterNS == 0 {
		t.Fatalf("bucket empty: got %+v", dec)
	}
	// One token refills after 1 virtual ms.
	if dec := a.Admit(1, now+2*time.Millisecond); !dec.Admit {
		t.Fatalf("refill rejected: %+v", dec)
	}
}

func TestConcurrencyLimiterTracksCapacity(t *testing.T) {
	capacity := 2
	a := NewAdmission(AdmissionConfig{CapacityFn: func() int { return capacity }})
	if !a.Admit(1, 0).Admit || !a.Admit(2, 0).Admit {
		t.Fatal("under capacity rejected")
	}
	if dec := a.Admit(3, 0); dec.Admit {
		t.Fatal("over capacity admitted")
	}
	a.Done()
	if !a.Admit(3, 0).Admit {
		t.Fatal("freed slot rejected")
	}
	capacity = 8 // capacity follows the fn (autotune moved)
	if !a.Admit(4, 0).Admit {
		t.Fatal("raised capacity rejected")
	}
}

func TestBreakerTripsAndCoolsDown(t *testing.T) {
	a := NewAdmission(AdmissionConfig{
		CapacityFn:      func() int { return 1 },
		BreakerTrip:     3,
		BreakerCooldown: time.Second,
	})
	if !a.Admit(1, 0).Admit {
		t.Fatal("first admit rejected")
	}
	// Slot held: the tenant keeps hammering and trips its breaker.
	for i := 0; i < 3; i++ {
		if dec := a.Admit(1, 0); dec.Admit || dec.Status != StatusOverload {
			t.Fatalf("hammer %d: got %+v", i, dec)
		}
	}
	dec := a.Admit(1, 0)
	if dec.Status != StatusBreaker || dec.RetryAfterNS == 0 {
		t.Fatalf("tripped: got %+v", dec)
	}
	// Other tenants are not shed by tenant 1's breaker (only by capacity).
	if dec := a.Admit(2, 0); dec.Status != StatusOverload {
		t.Fatalf("tenant 2 hit tenant 1's breaker: %+v", dec)
	}
	a.Done()
	// Cooldown over: half-open admits again.
	if dec := a.Admit(1, time.Second+time.Millisecond); !dec.Admit {
		t.Fatalf("after cooldown: got %+v", dec)
	}
}

// ---- run queue ----

func TestRunQueueReadPriorityAndLIFO(t *testing.T) {
	q := NewRunQueue(8, 0.5) // LIFO past 4 queued
	mk := func(id uint64, read bool) *Item {
		return &Item{Req: Request{ID: id}, Read: read}
	}
	// FIFO regime: writes 1,2 then reads 3,4.
	for _, it := range []*Item{mk(1, false), mk(2, false), mk(3, true), mk(4, true)} {
		if !q.Push(it) {
			t.Fatal("push failed under capacity")
		}
	}
	// Above the watermark: LIFO within each band.
	q.Push(mk(5, false))
	q.Push(mk(6, true))
	var order []uint64
	for it := q.Pop(); it != nil; it = q.Pop() {
		order = append(order, it.Req.ID)
	}
	// Reads first (6 jumped its band's front), then writes (5 in front).
	want := []uint64{6, 3, 4, 5, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestRunQueueBounded(t *testing.T) {
	q := NewRunQueue(2, 0.5)
	q.Push(&Item{})
	q.Push(&Item{})
	if q.Push(&Item{}) {
		t.Fatal("push past capacity succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}

// ---- server end to end ----

func TestServerEndToEnd(t *testing.T) {
	r := newRig(t)
	s := startServer(t, r, DefaultOptions())
	c := dial(t, s, 1)

	if resp, err := c.Ping(); err != nil || resp.Status != StatusOK {
		t.Fatalf("ping: %v %+v", err, resp)
	}
	if resp, err := c.Put(7, []byte("seven"), 0); err != nil || resp.Status != StatusOK {
		t.Fatalf("put: %v %+v", err, resp)
	}
	resp, err := c.Get(7, 0)
	if err != nil || resp.Status != StatusOK || !resp.Found || string(resp.Val) != "seven" {
		t.Fatalf("get: %v %+v", err, resp)
	}
	if resp, err := c.Get(8, 0); err != nil || resp.Found {
		t.Fatalf("get missing: %v %+v", err, resp)
	}
	resp, err = c.Do(Request{Op: OpPutMulti, Keys: []uint64{10, 11}, Vals: [][]byte{[]byte("a"), []byte("b")}})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("putmulti: %v %+v", err, resp)
	}
	resp, err = c.Do(Request{Op: OpGetMulti, Keys: []uint64{10, 11, 12}})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("getmulti: %v %+v", err, resp)
	}
	if len(resp.Founds) != 3 || !resp.Founds[0] || !resp.Founds[1] || resp.Founds[2] ||
		string(resp.Vals[0]) != "a" || string(resp.Vals[1]) != "b" {
		t.Fatalf("getmulti payload: %+v", resp)
	}
	for i := 0; i < 20; i++ {
		if resp, err := c.Tx(uint64(i)*0x9E3779B97F4A7C15, 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("tx %d: %v %+v", i, err, resp)
		}
	}
	if resp, err := c.Drain(); err != nil || resp.Status != StatusOK {
		t.Fatalf("drain: %v %+v", err, resp)
	}
	if got := r.fe.Stats().ServeAccepted.Load(); got == 0 {
		t.Fatal("ServeAccepted not counted")
	}
}

func TestServerBankStaysConserving(t *testing.T) {
	r := newRig(t)
	s := startServer(t, r, DefaultOptions())
	c := dial(t, s, 1)
	for i := 0; i < 50; i++ {
		// Conserving selectors only: Balance (5), Amalgamate (50),
		// SendPayment (90) — the mix chaos restricts itself to.
		r := uint64(i) * 2654435761
		sel := r - r%100 + []uint64{5, 50, 90}[i%3]
		if resp, err := c.Tx(sel, 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("tx %d: %v %+v", i, err, resp)
		}
	}
	if resp, err := c.Drain(); err != nil || resp.Status != StatusOK {
		t.Fatalf("drain: %v %+v", err, resp)
	}
	s.Close() // backends are ours again
	total, err := r.bank.TotalMoney()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(64 * 15000); total != want {
		t.Fatalf("money not conserved: %d != %d", total, want)
	}
}

func TestServerShedsUnderOverload(t *testing.T) {
	r := newRig(t)
	opts := DefaultOptions()
	opts.QueueCap = 4
	opts.Admission.CapacityFn = func() int { return 2 }
	opts.Admission.RetryAfterMin = time.Millisecond
	s := startServer(t, r, opts)

	var rejected, accepted int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(tenant uint16) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), tenant)
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				resp, err := c.Put(uint64(tenant)*1000+uint64(i), []byte("v"), 0)
				if err != nil {
					return
				}
				mu.Lock()
				switch resp.Status {
				case StatusOK:
					accepted++
				case StatusOverload, StatusBreaker:
					rejected++
					if resp.RetryAfterNS == 0 {
						t.Error("overload rejection without retry-after")
					}
				}
				mu.Unlock()
			}
		}(uint16(g))
	}
	wg.Wait()
	if accepted == 0 {
		t.Fatal("no request survived admission")
	}
	if rejected == 0 {
		t.Fatal("no request was shed with capacity 2 and 8 hammering clients")
	}
	st := r.fe.Stats().Snapshot()
	if st.ServeRejected+st.ServeBreaker == 0 {
		t.Fatalf("shed not counted: %+v", st)
	}
	// The plane recovers: a polite client gets through afterwards.
	c := dial(t, s, 99)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Get(1, 0)
		if err != nil {
			t.Fatalf("post-overload get: %v", err)
		}
		if resp.Status == StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plane never recovered: %+v", resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerExpiresQueuedDeadline(t *testing.T) {
	r := newRig(t)
	s := New(r.backends(), DefaultOptions()) // not started: drive exec directly
	var got Response
	it := &Item{
		Req:        Request{Op: OpGet, ID: 5, Key: 1},
		Read:       true,
		DeadlineAt: 1, // already in the past once the clock moves
		Reply:      func(resp Response) { got = resp },
	}
	r.fe.Clock().Advance(time.Millisecond)
	s.adm.Admit(0, 0)
	s.exec(it)
	if got.Status != StatusDeadline || got.ID != 5 {
		t.Fatalf("expired item: %+v", got)
	}
	if r.fe.Stats().ServeExpired.Load() != 1 {
		t.Fatal("ServeExpired not counted")
	}
	if s.adm.Inflight() != 0 {
		t.Fatal("inflight slot leaked")
	}
}

func TestServerDropsSlowClient(t *testing.T) {
	r := newRigValueCap(t, 32<<10)
	opts := DefaultOptions()
	opts.OutboundCap = 1
	opts.SlowWrite = 50 * time.Millisecond
	s := startServer(t, r, opts)

	// A 32 KB value makes each response big enough to fill socket buffers.
	big := workload.Value(1, 32<<10)
	c := dial(t, s, 1)
	if resp, err := c.Put(1, big, 0); err != nil || resp.Status != StatusOK {
		t.Fatalf("put: %v %+v", err, resp)
	}

	// A raw connection that fires gets and never reads responses.
	slow, err := Dial(s.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	req := Request{Op: OpGet, Key: 1, Tenant: 2}
	for i := 0; i < 200; i++ {
		if err := WriteFrame(slow.w, req.Encode()); err != nil {
			break
		}
		if err := slow.w.Flush(); err != nil {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.fe.Stats().ServeSlowDrop.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow client never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Other tenants keep being served.
	if resp, err := c.Get(1, 0); err != nil || resp.Status != StatusOK || !resp.Found {
		t.Fatalf("well-behaved client stalled: %v %+v", err, resp)
	}
}

// ---- loadgen ----

func loadgenCfg(seed int64, rate float64) LoadgenConfig {
	return LoadgenConfig{
		Seed:     seed,
		Duration: 200 * time.Millisecond,
		Sched:    workload.ConstRate(rate),
		Keys:     1 << 10,
		WritePct: 30,
		TxPct:    10,
		Theta:    0.9,
		ValueLen: 64,
		Budget:   2 * time.Millisecond,
		Workers:  1,
		QueueCap: 128,
		LIFOFrac: 0.5,
		Admission: AdmissionConfig{
			CapacityFn:      func() int { return 160 },
			BreakerTrip:     64,
			BreakerCooldown: 5 * time.Millisecond,
			RetryAfterMin:   100 * time.Microsecond,
		},
		Tenants: 4,
	}
}

func TestLoadgenDeterministicPerSeed(t *testing.T) {
	run := func() string {
		r := newRig(t)
		res, err := Loadgen(r.fe, r.kv, r.bank, loadgenCfg(42, 50_000))
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loadgen diverged per seed:\n%s\n%s", a, b)
	}
}

func TestLoadgenShedsNotCollapses(t *testing.T) {
	r := newRig(t)
	base, err := Loadgen(r.fe, r.kv, r.bank, loadgenCfg(7, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	if base.Good == 0 {
		t.Fatalf("no goodput at base load: %s", base)
	}
	r2 := newRig(t)
	over, err := Loadgen(r2.fe, r2.kv, r2.bank, loadgenCfg(7, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if over.Rejected == 0 {
		t.Fatalf("10x overload admitted everything: %s", over)
	}
	if over.GoodputKOPS < 0.5*base.GoodputKOPS {
		t.Fatalf("collapse under overload: base %s, over %s", base, over)
	}
}

func TestLoadgenFlashCrowdHotKeys(t *testing.T) {
	r := newRig(t)
	cfg := loadgenCfg(11, 10_000)
	cfg.Sched = workload.Flash{Base: 10_000, Peak: 1_200_000, Start: 50 * time.Millisecond, Dur: 50 * time.Millisecond}
	cfg.HotTheta = 0.99
	cfg.HotStart, cfg.HotDur = 50*time.Millisecond, 50*time.Millisecond
	res, err := Loadgen(r.fe, r.kv, r.bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatalf("flash crowd never shed: %s", res)
	}
	if res.Good == 0 {
		t.Fatalf("flash crowd starved everything: %s", res)
	}
}

// clock sanity: virtual time really is what drives the simulator.
func TestLoadgenUsesVirtualTime(t *testing.T) {
	r := newRig(t)
	before := r.fe.Clock().Now()
	if _, err := Loadgen(r.fe, r.kv, r.bank, loadgenCfg(3, 5_000)); err != nil {
		t.Fatal(err)
	}
	if r.fe.Clock().Now() <= before {
		t.Fatal("virtual clock did not advance")
	}
	var _ clock.Clock = r.fe.Clock()
}

// ---- mirror-served reads ----

// TestMirrorServedReads pins the staleness-budget contract end to end:
// a lagged replica serves reads only when the client's budget covers its
// lag, a zero budget always reads the primary, and a served stale read
// shows exactly the pre-lag state — never a torn in-between.
func TestMirrorServedReads(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.DeviceBytes = 128 << 20
	cfg.MirrorsPerBack = 1
	clu, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Stop)
	plane := fault.NewPlane(7)
	plane.SetMirrorLag(1 << 20) // hold replication until drained explicitly
	clu.AttachFaultPlane(plane)
	fe, conns, err := clu.NewFrontend(1, core.Mode{OpLog: true, Batch: 4, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := ds.CreateHashTable(conns[0], "serve-kv", dsOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Drain(); err != nil {
		t.Fatal(err)
	}
	clu.SyncMirrors(0) // replica now holds {1: old}

	mfe, mconn, err := clu.NewMirrorFrontend(9, 0, 0, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	_ = mfe
	mkv, err := ds.OpenHashTable(mconn, "serve-kv", false, dsOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Advance the primary past the replica: these stay queued in the lag
	// plane, so the mirror's SN (and state) is pinned behind.
	if err := kv.Put(1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Drain(); err != nil {
		t.Fatal(err)
	}
	lag, err := cluster.MirrorStaleness(conns[0], mconn, kv.Handle().Slot())
	if err != nil {
		t.Fatal(err)
	}
	if lag == 0 {
		t.Fatal("replication lag plane did not hold the mirror back")
	}

	s := New(Backends{FE: fe, KV: kv, MirrorKV: mkv}, DefaultOptions())
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := dial(t, s, 1)

	st := fe.Stats()
	// Zero budget: primary, fresh.
	resp, err := c.Get(1, 0)
	if err != nil || resp.Status != StatusOK || !resp.Found || string(resp.Val) != "new" {
		t.Fatalf("fresh get: %+v err=%v", resp, err)
	}
	// Budget below the lag: the mirror may NOT serve; still fresh.
	if lag > 1 {
		resp, err = c.GetStale(1, uint32(lag-1), 0)
		if err != nil || string(resp.Val) != "new" {
			t.Fatalf("under-budget get: %+v err=%v", resp, err)
		}
	}
	if n := st.MirrorReads.Load(); n != 0 {
		t.Fatalf("mirror served %d reads without budget cover", n)
	}
	// Budget covering the lag: served from the mirror, observing exactly
	// the synced snapshot — key 1 old, key 2 absent.
	resp, err = c.GetStale(1, uint32(lag), 0)
	if err != nil || resp.Status != StatusOK || !resp.Found || string(resp.Val) != "old" {
		t.Fatalf("stale get key 1: %+v err=%v", resp, err)
	}
	resp, err = c.GetStale(2, uint32(lag), 0)
	if err != nil || resp.Status != StatusOK || resp.Found {
		t.Fatalf("stale get key 2 should miss: %+v err=%v", resp, err)
	}
	if n := st.MirrorReads.Load(); n != 2 {
		t.Fatalf("MirrorReads = %d, want 2", n)
	}
	if n := st.MirrorStaleEpochs.Load(); n != 2*int64(lag) {
		t.Fatalf("MirrorStaleEpochs = %d, want %d", n, 2*int64(lag))
	}
	// Catch the mirror up: the same budget now observes fresh state.
	clu.SyncMirrors(0)
	resp, err = c.GetStale(2, uint32(lag), 0)
	if err != nil || !resp.Found || string(resp.Val) != "two" {
		t.Fatalf("post-sync stale get: %+v err=%v", resp, err)
	}
}

// A partition that re-homed under a request maps to StatusMoved with a
// small retry hint — the client outwaits one fence refresh, not a
// migration — while other failures keep their existing statuses.
func TestMovedStatusMapping(t *testing.T) {
	resp := errResponse(fmt.Errorf("route: %w", core.ErrMoved))
	if resp.Status != StatusMoved {
		t.Fatalf("ErrMoved mapped to status %d, want StatusMoved", resp.Status)
	}
	if resp.RetryAfterNS == 0 {
		t.Fatal("StatusMoved carries no retry hint")
	}
	if r := errResponse(errors.New("plain failure")); r.Status != StatusError {
		t.Fatalf("plain error mapped to %d, want StatusError", r.Status)
	}

	// The hint survives the wire round-trip.
	b, err := resp.AppendFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrameInto(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusMoved || got.RetryAfterNS != resp.RetryAfterNS {
		t.Fatalf("round-trip: got status=%d retry=%d, want status=%d retry=%d",
			got.Status, got.RetryAfterNS, StatusMoved, resp.RetryAfterNS)
	}
}

// DoRetryMoved keeps retrying while the server answers StatusMoved and
// returns the first settled response; a server that never settles
// exhausts the attempt budget and surfaces StatusMoved to the caller.
func TestClientRetriesMoved(t *testing.T) {
	serveMoved := func(nc net.Conn, movedReplies int) {
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		for {
			payload, err := ReadFrameInto(r, nil)
			if err != nil {
				return
			}
			req, err := DecodeRequest(payload)
			if err != nil {
				return
			}
			resp := Response{Status: StatusOK, ID: req.ID, Found: true, Val: []byte("home")}
			if movedReplies > 0 {
				movedReplies--
				resp = Response{Status: StatusMoved, ID: req.ID, RetryAfterNS: 1}
			}
			b, err := resp.AppendFramed(nil)
			if err != nil {
				return
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}

	c1, c2 := net.Pipe()
	defer c1.Close()
	go serveMoved(c2, 2)
	cl := &Client{nc: c1, r: bufio.NewReader(c1), w: bufio.NewWriter(c1), tenant: 1}
	resp, err := cl.DoRetryMoved(Request{Op: OpGet, Key: 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || !resp.Found || string(resp.Val) != "home" {
		t.Fatalf("retry did not settle: status=%d found=%v val=%q", resp.Status, resp.Found, resp.Val)
	}

	c3, c4 := net.Pipe()
	defer c3.Close()
	go serveMoved(c4, 1000)
	cl2 := &Client{nc: c3, r: bufio.NewReader(c3), w: bufio.NewWriter(c3), tenant: 1}
	resp, err = cl2.DoRetryMoved(Request{Op: OpGet, Key: 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusMoved {
		t.Fatalf("exhausted retries returned status %d, want StatusMoved", resp.Status)
	}
}

// TestPutMultiAllOrNothing: a multi-put the server answers with an error
// leaves no put behind. The fifth value exceeds the table's inline
// capacity, which PutMulti rejects before the first put — the first four
// keys keep their old values, seen through a fresh reader front-end.
func TestPutMultiAllOrNothing(t *testing.T) {
	r := newRig(t)
	s := startServer(t, r, DefaultOptions())
	c := dial(t, s, 1)

	keys := []uint64{1, 2, 3, 4}
	for _, k := range keys {
		if resp, err := c.Put(k, []byte(fmt.Sprintf("old-%d", k)), 0); err != nil || resp.Status != StatusOK {
			t.Fatalf("seed put %d: %v %+v", k, err, resp)
		}
	}
	vals := [][]byte{[]byte("new-1"), []byte("new-2"), []byte("new-3"), []byte("new-4"), bytes.Repeat([]byte{'x'}, 100)}
	resp, err := c.Do(Request{Op: OpPutMulti, Keys: append(keys, 5), Vals: vals})
	if err != nil || resp.Status != StatusError {
		t.Fatalf("putmulti with an oversized value: %v %+v, want StatusError", err, resp)
	}
	if resp, err := c.Drain(); err != nil || resp.Status != StatusOK {
		t.Fatalf("drain: %v %+v", err, resp)
	}

	_, conns, err := r.clu.NewFrontend(2, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	reader, err := ds.OpenHashTable(conns[0], "serve-kv", false, dsOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		want := fmt.Sprintf("old-%d", k)
		if got, ok, err := reader.Get(k); err != nil || !ok || string(got) != want {
			t.Fatalf("key %d after the failed putmulti: %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
	if _, ok, err := reader.Get(5); err != nil || ok {
		t.Fatalf("key 5 exists after the failed putmulti (ok=%v err=%v)", ok, err)
	}
}
