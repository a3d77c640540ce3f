package core

import (
	"bytes"
	"errors"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
	"asymnvm/internal/stats"
)

// testRig wires one back-end and front-ends on a zero-latency profile.
type testRig struct {
	t   *testing.T
	dev *nvm.Device
	bk  *backend.Backend
}

func newRig(t *testing.T, devSize int) *testRig {
	t.Helper()
	prof := clock.ZeroProfile()
	dev := nvm.NewDevice(devSize)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	t.Cleanup(bk.Stop)
	return &testRig{t: t, dev: dev, bk: bk}
}

func (r *testRig) frontend(id uint16, mode Mode) *Frontend {
	prof := clock.ZeroProfile()
	return NewFrontend(FrontendOptions{ID: id, Mode: mode, Profile: &prof})
}

func (r *testRig) connect(fe *Frontend) *Conn {
	c, err := fe.Connect(r.bk)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

var smallOpts = CreateOptions{MemLogSize: 256 << 10, OpLogSize: 128 << 10}

func TestConnectReadsLayout(t *testing.T) {
	r := newRig(t, 8<<20)
	c := r.connect(r.frontend(1, ModeR()))
	if c.Layout().BlockSize != 4096 {
		t.Fatalf("layout block size %d", c.Layout().BlockSize)
	}
}

func TestRPCMallocFree(t *testing.T) {
	r := newRig(t, 8<<20)
	c := r.connect(r.frontend(1, ModeR()))
	a1, err := c.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Malloc(10000)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("duplicate allocation")
	}
	if backend.AddrOff(a1)%4096 != 0 {
		t.Fatal("allocation not block aligned")
	}
	if err := c.Free(a2, 10000); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(a1, 4096); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(a1, 4096); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestTwoTierThroughRPC(t *testing.T) {
	r := newRig(t, 8<<20)
	c := r.connect(r.frontend(1, ModeR()))
	var addrs []uint64
	for i := 0; i < 100; i++ {
		a, err := c.Alloc(96)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// 100 × 128B-class blocks fit in far fewer than 100 slabs.
	if n := c.Frontend().Stats().RPCCalls.Load(); n <= 0 || n >= 100 {
		t.Fatalf("100 sub-slab allocations made %d allocator RPCs, want some and far fewer than 100", n)
	}
	for _, a := range addrs {
		if err := c.Release(a, 96); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateOpenHandle(t *testing.T) {
	r := newRig(t, 16<<20)
	c := r.connect(r.frontend(1, ModeR()))
	h, err := c.Create("mystack", backend.TypeStack, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Slot() != 0 || h.Type() != backend.TypeStack {
		t.Fatalf("handle slot=%d type=%d", h.Slot(), h.Type())
	}
	if _, err := c.Create("mystack", backend.TypeStack, smallOpts); err == nil {
		t.Fatal("duplicate create must fail")
	}
	h2, err := c.Open("mystack", false)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Slot() != h.Slot() {
		t.Fatal("open found a different slot")
	}
	if _, err := c.Open("nosuch", false); err == nil {
		t.Fatal("open of unknown name must fail")
	}
}

func TestWriteFlushReplayRead(t *testing.T) {
	r := newRig(t, 16<<20)
	c := r.connect(r.frontend(1, ModeR()))
	h, err := c.Create("kv", backend.TypeHashTable, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, 64)
	if _, err := h.OpLog(1, payload); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(node, payload); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteRoot(node); err != nil {
		t.Fatal(err)
	}
	if err := h.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	// A fresh reader sees the replayed data straight from NVM.
	fe2 := r.frontend(2, ModeR())
	c2 := r.connect(fe2)
	h2, err := c2.Open("kv", false)
	if err != nil {
		t.Fatal(err)
	}
	root, err := h2.ReadRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != node {
		t.Fatalf("root = %#x, want %#x", root, node)
	}
	got, err := h2.Read(node, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("replayed node bytes differ")
	}
}

func TestReadYourWritesBeforeReplay(t *testing.T) {
	r := newRig(t, 16<<20)
	// Batch big enough that nothing flushes by itself.
	fe := r.frontend(1, ModeRCB(1<<20, 1000))
	c := r.connect(fe)
	h, err := c.Create("ryw", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(32)
	val := bytes.Repeat([]byte{7}, 32)
	if _, err := h.OpLog(1, val); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(node, val); err != nil {
		t.Fatal(err)
	}
	// Nothing flushed or replayed yet: the overlay must serve the read.
	got, err := h.Read(node, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("overlay did not serve unflushed write")
	}
	if err := h.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err = h.Read(node, 32, true)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("read after drain: %v", err)
	}
}

func TestBatchingCoalescesTxWrites(t *testing.T) {
	r := newRig(t, 16<<20)
	feB := r.frontend(1, ModeRCB(1<<20, 64))
	cB := r.connect(feB)
	hB, err := cB.Create("batched", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		node, _ := hB.Alloc(32)
		if _, err := hB.OpLog(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := hB.Write(node, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := hB.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	if err := hB.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := feB.Stats().TxCommits.Load(); n != 1 {
		t.Fatalf("64 ops at batch 64 should commit once, got %d", n)
	}

	feU := r.frontend(2, ModeR())
	cU := r.connect(feU)
	hU, err := cU.Create("unbatched", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		node, _ := hU.Alloc(32)
		_, _ = hU.OpLog(1, []byte{byte(i)})
		_ = hU.Write(node, bytes.Repeat([]byte{1}, 32))
		_ = hU.EndOp()
	}
	if n := feU.Stats().TxCommits.Load(); n != 8 {
		t.Fatalf("unbatched mode should commit per op, got %d", n)
	}
}

func TestWriterLockExcludes(t *testing.T) {
	r := newRig(t, 16<<20)
	c1 := r.connect(r.frontend(1, ModeR()))
	h1, err := c1.Create("locked", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.WriterLock(); err != nil {
		t.Fatal(err)
	}
	// A second front-end must not get the lock while held.
	c2 := r.connect(r.frontend(2, ModeR()))
	h2, err := c2.Open("locked", true)
	if err != nil {
		t.Fatal(err)
	}
	lockOff := c2.Layout().LockOff(h2.Slot())
	if _, ok, _ := c2.Endpoint().CompareAndSwap(lockOff, 0, 99); ok {
		t.Fatal("lock CAS must fail while held")
	}
	if err := h1.WriterUnlock(); err != nil {
		t.Fatal(err)
	}
	if err := h2.WriterLock(); err != nil {
		t.Fatal(err)
	}
	if err := h2.WriterUnlock(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakLockOfDeadOwner(t *testing.T) {
	r := newRig(t, 16<<20)
	c1 := r.connect(r.frontend(1, ModeR()))
	h1, err := c1.Create("dead", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.WriterLock(); err != nil {
		t.Fatal(err)
	}
	// Front-end 1 "crashes" holding the lock. Recovery breaks it.
	c2 := r.connect(r.frontend(2, ModeR()))
	h2, err := c2.Open("dead", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.BreakLock(1); err != nil {
		t.Fatal(err)
	}
	if err := h2.WriterLock(); err != nil {
		t.Fatal(err)
	}
}

func TestSeqlockReaderSeesConsistentState(t *testing.T) {
	r := newRig(t, 16<<20)
	cW := r.connect(r.frontend(1, ModeR()))
	h, err := cW.Create("seq", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	write := func(v byte) {
		if _, err := h.OpLog(1, []byte{v}); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(node, bytes.Repeat([]byte{v}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteRoot(node); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	cR := r.connect(r.frontend(2, ModeRC(1<<20)))
	hR, err := cR.Open("seq", false)
	if err != nil {
		t.Fatal(err)
	}
	readOnce := func() []byte {
		for {
			if err := hR.ReaderLock(); err != nil {
				t.Fatal(err)
			}
			b, err := hR.Read(node, 64, true)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := hR.ReaderValidate()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return b
			}
		}
	}
	if b := readOnce(); b[0] != 1 {
		t.Fatalf("reader saw %d, want 1", b[0])
	}
	// Writer updates; after drain the reader must observe v=2 (its cached
	// entry is invalidated by the SN change).
	write(2)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if b := readOnce(); b[0] != 2 {
		t.Fatalf("reader saw stale %d after SN change", b[0])
	}
}

func TestNaiveModeWritesInPlace(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeNaive())
	c := r.connect(fe)
	h, err := c.Create("naive", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(32)
	val := bytes.Repeat([]byte{9}, 32)
	if err := h.Write(node, val); err != nil {
		t.Fatal(err)
	}
	// No logs, no tx: the bytes are already in place.
	if n := fe.Stats().TxCommits.Load(); n != 0 {
		t.Fatal("naive mode must not commit transactions")
	}
	got, err := h.Read(node, 32, false)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("naive read-back failed: %v", err)
	}
}

func TestBackendRestartRecoversCommitted(t *testing.T) {
	prof := clock.ZeroProfile()
	dev := nvm.NewDevice(16 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	fe := NewFrontend(FrontendOptions{ID: 1, Mode: ModeR(), Profile: &prof})
	c, err := fe.Connect(bk)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("crashy", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	val := bytes.Repeat([]byte{0xEE}, 64)
	if _, err := h.OpLog(1, val); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(node, val); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteRoot(node); err != nil {
		t.Fatal(err)
	}
	if err := h.EndOp(); err != nil { // flushes the tx (batch=1)
		t.Fatal(err)
	}
	// Stop the back-end abruptly *without* draining, then power-fail the
	// device: the tx log was persisted by the RDMA ack, so recovery must
	// replay it even though the data area never saw it.
	bk.Stop()
	dev.Crash(nil)

	bk2, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk2.Start()
	defer bk2.Stop()
	fe2 := NewFrontend(FrontendOptions{ID: 2, Mode: ModeR(), Profile: &prof})
	c2, err := fe2.Connect(bk2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.Open("crashy", false)
	if err != nil {
		t.Fatal(err)
	}
	root, err := h2.ReadRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != node {
		t.Fatalf("recovered root %#x, want %#x", root, node)
	}
	got, err := h2.Read(node, 64, false)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatal("committed write lost across restart")
	}
}

func TestTornTxDetectedAndDiscarded(t *testing.T) {
	prof := clock.ZeroProfile()
	dev := nvm.NewDevice(16 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	fe := NewFrontend(FrontendOptions{ID: 1, Mode: ModeR(), Profile: &prof})
	c, err := fe.Connect(bk)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("torn", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	// First, one committed op.
	n1, _ := h.Alloc(64)
	v1 := bytes.Repeat([]byte{1}, 64)
	_, _ = h.OpLog(1, v1)
	_ = h.Write(n1, v1)
	_ = h.WriteRoot(n1)
	_ = h.EndOp()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	// Second op: its tx_write dies mid-transfer (64 bytes reach the
	// volatile window, never acknowledged).
	n2, _ := h.Alloc(64)
	v2 := bytes.Repeat([]byte{2}, 64)
	_, _ = h.OpLog(1, v2)
	_ = h.Write(n2, v2)
	_ = h.WriteRoot(n2)
	// The fault persists across the retry budget so the flush really
	// fails; every attempt leaves the same 64-byte volatile prefix.
	injected := false
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpWrite && n > 80 {
			injected = true
			return rdma.Fault{Err: rdma.ErrInjected, Truncate: 64}
		}
		return rdma.Fault{}
	})
	if err := h.EndOp(); err == nil {
		t.Fatal("tx flush should have failed")
	} else if !errors.Is(err, rdma.ErrInjected) {
		t.Fatalf("flush error must unwrap to ErrInjected, got %v", err)
	}
	if !injected {
		t.Fatal("fault hook never fired")
	}
	if fe.Stats().VerbRetries.Load() == 0 {
		t.Fatal("transient fault must be retried before surfacing")
	}
	c.Endpoint().SetFault(nil)

	bk.Stop()
	dev.Crash(nil) // power failure drops the unacknowledged prefix

	bk2, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk2.Start()
	defer bk2.Stop()
	fe2 := NewFrontend(FrontendOptions{ID: 2, Mode: ModeR(), Profile: &prof})
	c2, _ := fe2.Connect(bk2)
	h2, err := c2.Open("torn", false)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := h2.ReadRoot()
	if root != n1 {
		t.Fatalf("root %#x, want the committed %#x (torn tx must not apply)", root, n1)
	}
	// The second operation's op log may or may not have persisted; the
	// PendingOps list hands any such op back for re-execution.
	h3, err := c2.Open("torn", true)
	if err != nil {
		t.Fatal(err)
	}
	pend, err := h3.PendingOps()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pending ops for re-execution: %d", len(pend))
}

func TestWriterReopenResumesTails(t *testing.T) {
	r := newRig(t, 16<<20)
	c := r.connect(r.frontend(1, ModeR()))
	h, err := c.Create("resume", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	for i := byte(1); i <= 3; i++ {
		_, _ = h.OpLog(1, []byte{i})
		_ = h.Write(node, bytes.Repeat([]byte{i}, 64))
		_ = h.EndOp()
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	memTail, opTail := h.memTail, h.opTail

	// The writer "crashes"; a new front-end reopens as writer and must
	// resume at the same tails.
	c2 := r.connect(r.frontend(3, ModeR()))
	h2, err := c2.Open("resume", true)
	if err != nil {
		t.Fatal(err)
	}
	if h2.memTail != memTail || h2.opTail != opTail {
		t.Fatalf("resumed tails (%d,%d), want (%d,%d)", h2.memTail, h2.opTail, memTail, opTail)
	}
	// And keep writing.
	_, _ = h2.OpLog(1, []byte{4})
	_ = h2.Write(node, bytes.Repeat([]byte{4}, 64))
	_ = h2.EndOp()
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ := h2.Read(node, 64, false)
	if got[0] != 4 {
		t.Fatalf("write after resume lost: %d", got[0])
	}
}

func TestLogAreaWrapAround(t *testing.T) {
	r := newRig(t, 32<<20)
	c := r.connect(r.frontend(1, ModeR()))
	// Tiny log areas force many wrap-arounds.
	h, err := c.Create("wrap", backend.TypeBST, CreateOptions{MemLogSize: 8 << 10, OpLogSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(128)
	val := make([]byte, 128)
	for i := 0; i < 500; i++ {
		val[0] = byte(i)
		if _, err := h.OpLog(1, val[:16]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := h.Write(node, val); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Read(node, 128, false)
	if got[0] != byte(499%256) {
		t.Fatalf("after wrap, node holds %d", got[0])
	}
	if h.memTail <= 8<<10 {
		t.Fatal("test did not actually wrap the log area")
	}
}

func TestCacheServesRepeatedReads(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeRC(1<<20))
	c := r.connect(fe)
	h, err := c.Create("cachy", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	_, _ = h.OpLog(1, nil)
	_ = h.Write(node, bytes.Repeat([]byte{5}, 64))
	_ = h.EndOp()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	feR := r.frontend(2, ModeRC(1<<20))
	cR := r.connect(feR)
	hR, _ := cR.Open("cachy", false)
	_ = hR.ReaderLock()
	before := feR.Stats().Snapshot()
	for i := 0; i < 10; i++ {
		if _, err := hR.Read(node, 64, true); err != nil {
			t.Fatal(err)
		}
	}
	d := feR.Stats().Snapshot().Sub(before)
	if d.RDMARead != 1 {
		t.Fatalf("10 cached reads should cost 1 RDMA read, cost %d", d.RDMARead)
	}
	if d.CacheHit != 9 {
		t.Fatalf("expected 9 hits, got %d", d.CacheHit)
	}
}

// TestReadPrefixImage: a structure that admits only the head of a unit
// (AdmitKeyed) finds that head by key (Floor) and by address (Cached), each
// for DRAM accesses and no fabric read, while a read of the whole unit
// passes the image by — one fabric read that leaves the entry alone. The
// entry is valid at every epoch, unlike a whole unit's; and the writer
// still reads its own overlay first while write-through keeps the prefix
// current underneath.
func TestReadPrefixImage(t *testing.T) {
	r := newRig(t, 16<<20)
	feW := r.frontend(1, ModeRC(1<<20))
	h, err := r.connect(feW).Create("prefix", backend.TypeSkipList, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	write := func(v byte) {
		t.Helper()
		_, _ = h.OpLog(1, nil)
		if err := h.Write(node, bytes.Repeat([]byte{v}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	feR := r.frontend(2, ModeRC(1<<20))
	hR, err := r.connect(feR).Open("prefix", false)
	if err != nil {
		t.Fatal(err)
	}
	// read reads the whole unit and admits its head under key 500.
	read := func(h *Handle, want byte, wantTrips int64) {
		t.Helper()
		st := h.Conn().Frontend().Stats()
		before := st.RDMARead.Load()
		b, err := h.Read(node, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, bytes.Repeat([]byte{want}, 64)) {
			t.Fatalf("read %v, want 64 of %d", b, want)
		}
		if got := st.RDMARead.Load() - before; got != wantTrips {
			t.Fatalf("read cost %d fabric reads, want %d", got, wantTrips)
		}
		h.AdmitKeyed(node, b[:16], 64, 500, 0)
	}
	// probe finds the head by key and by address, for DRAM accesses alone.
	probe := func(h *Handle, want byte) {
		t.Helper()
		fe := h.Conn().Frontend()
		reads, clk := fe.Stats().RDMARead.Load(), fe.Clock().Now()
		addr, img, ok := h.Floor(501, 0)
		if !ok || addr != node || !bytes.Equal(img, bytes.Repeat([]byte{want}, 16)) {
			t.Fatalf("Floor(501) = addr %#x %v ok=%v, want the 16-byte head of %#x", addr, img, ok, node)
		}
		if img, ok := h.Cached(node); !ok || !bytes.Equal(img, bytes.Repeat([]byte{want}, 16)) {
			t.Fatalf("Cached = %v ok=%v, want the 16-byte head", img, ok)
		}
		if _, _, ok := h.Floor(499, 0); ok {
			t.Fatal("Floor(499) found an entry keyed 500")
		}
		// One index node per search, one access for the probe.
		if d, want := fe.Clock().Now()-clk, 3*fe.Profile().DRAMAccess; d != want || fe.Stats().RDMARead.Load() != reads {
			t.Fatalf("two searches and a probe charged %v and %d fabric reads, want %v and none", d, fe.Stats().RDMARead.Load()-reads, want)
		}
	}
	_ = hR.ReaderLock()
	read(hR, 1, 1) // miss: the whole unit, its head admitted
	if used := feR.Cache().Used(); used != 16 {
		t.Fatalf("cache holds %d bytes after admission, want the 16-byte prefix", used)
	}
	probe(hR, 1)
	read(hR, 1, 1) // the whole unit again: the prefix does not answer for it
	if used := feR.Cache().Used(); used != 16 {
		t.Fatalf("a whole-unit read left %d cached bytes, want 16", used)
	}

	// The writer rewrites the unit: write-through patches its own prefix
	// entry, and its reads see the overlay, whole, ahead of it.
	h.AdmitKeyed(node, bytes.Repeat([]byte{1}, 16), 64, 500, 0)
	write(2)
	read(h, 2, 0)
	probe(h, 2)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	read(h, 2, 1) // overlay retired: the fabric, not the prefix
	probe(h, 2)

	// The SN moved with the replayed write. A keyed image is admitted on the
	// structure's word that what its searches read from it never changes, so
	// the reader still finds it — holding the bytes it was admitted with —
	// where a whole-unit entry read under the old SN is gone. The unit itself
	// is read fresh.
	if _, err := hR.Read(hR.RootAddr(), 8, true); err != nil {
		t.Fatal(err)
	}
	_ = hR.ReaderLock()
	probe(hR, 1)
	if _, ok := feR.Cache().GetUnit(hR.RootAddr(), 8, hR.readEpoch(), false); ok {
		t.Fatal("a whole-unit entry read under an older epoch still hits")
	}
	read(hR, 2, 1)
	probe(hR, 2)
}

func TestStatsLatencyCharged(t *testing.T) {
	prof := clock.DefaultProfile()
	dev := nvm.NewDevice(16 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	defer bk.Stop()
	clk := clock.NewVirtual()
	fe := NewFrontend(FrontendOptions{ID: 1, Mode: ModeR(), Clock: clk, Profile: &prof})
	c, err := fe.Connect(bk)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("timed", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	node, _ := h.Alloc(64)
	_, _ = h.OpLog(1, nil)
	_ = h.Write(node, make([]byte, 64))
	_ = h.EndOp()
	elapsed := clk.Now() - start
	// One op in R mode costs at least op-log write + tx write ≈ 2 RTTs.
	if elapsed < 2*prof.RDMARTT {
		t.Fatalf("unbatched write charged only %v", elapsed)
	}
}

var _ = stats.Snapshot{} // keep the import for helper visibility

func TestAbortDropsInFlightState(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeRCB(1<<20, 100))
	c := r.connect(fe)
	h, err := c.Create("abort", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	// One durable op.
	n1, _ := h.Alloc(32)
	_, _ = h.OpLog(1, nil)
	_ = h.Write(n1, bytes.Repeat([]byte{1}, 32))
	_ = h.EndOp()
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	// In-flight op, then the back-end "fails" and the client aborts.
	n2, _ := h.Alloc(32)
	_, _ = h.OpLog(1, nil)
	_ = h.Write(n2, bytes.Repeat([]byte{2}, 32))
	h.Abort()
	// Nothing pending: a flush is a no-op and the durable op survives.
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(n1, 32, false)
	if err != nil || got[0] != 1 {
		t.Fatalf("durable write lost after abort: %v %v", got, err)
	}
	// The aborted unit never reached NVM (reads return the zeroed block).
	got, _ = h.Read(n2, 32, false)
	if got[0] == 2 {
		t.Fatal("aborted write leaked into NVM")
	}
	// The handle keeps working for new operations.
	_, _ = h.OpLog(1, nil)
	_ = h.Write(n2, bytes.Repeat([]byte{3}, 32))
	_ = h.EndOp()
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ = h.Read(n2, 32, false)
	if got[0] != 3 {
		t.Fatalf("write after abort lost: %v", got)
	}
}

// TestWriteRangesLogsTheDiff pins what a ranged write puts in the memory
// log — one entry per dirty range, neighbours within an entry header of
// each other merged — against what it does to everything else, which is
// exactly what Write does: one overlay unit, one flush-mark reference.
func TestWriteRangesLogsTheDiff(t *testing.T) {
	if hdr := (&logrec.MemEntry{Flag: logrec.FlagInline}).EncodedLen(); hdr != mergeGap {
		t.Fatalf("mergeGap is %d, an inline entry's header %d bytes", mergeGap, hdr)
	}
	r := newRig(t, 16<<20)
	h, err := r.connect(r.frontend(1, ModeRCB(1<<20, 1000))).Create("ranges", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	unit, _ := h.Alloc(128)
	img := bytes.Repeat([]byte{7}, 128)
	cases := []struct {
		name  string
		dirty []Range
		want  []Range // logged entries, as offsets into the unit; nil = an error
	}{
		{"one range", []Range{{8, 8}}, []Range{{8, 8}}},
		{"gap of a header merges", []Range{{0, 8}, {21, 8}}, []Range{{0, 29}}},
		{"gap of a header and a byte splits", []Range{{0, 8}, {22, 8}}, []Range{{0, 8}, {22, 8}}},
		{"overlap and containment merge", []Range{{0, 40}, {10, 8}, {30, 20}}, []Range{{0, 50}}},
		{"empty ranges are skipped", []Range{{0, 0}, {64, 4}, {100, 0}, {120, 8}}, []Range{{64, 4}, {120, 8}}},
		{"no dirty byte logs nothing", []Range{{5, 0}}, []Range{}},
		{"descending", []Range{{64, 8}, {0, 8}}, nil},
		{"past the unit", []Range{{124, 8}}, nil},
	}
	for _, tc := range cases {
		before, marks := len(h.pending), len(h.pendingAddrs)
		err := h.WriteRanges(unit, img, tc.dirty...)
		got := h.pending[before:]
		if tc.want == nil {
			if err == nil || len(got) != 0 || len(h.pendingAddrs) != marks {
				t.Fatalf("%s: err=%v with %d entries logged, want an error and none", tc.name, err, len(got))
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Fatalf("%s: err=%v, %d entries, want %d", tc.name, err, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			if e := got[i]; e.Addr != unit+uint64(w.Off) || int(e.Len) != w.Len || !bytes.Equal(e.Value, img[w.Off:w.Off+w.Len]) {
				t.Fatalf("%s: entry %d is {+%d,%d}, want %+v", tc.name, i, e.Addr-unit, e.Len, w)
			}
		}
		if refs := len(h.pendingAddrs) - marks; refs != min(1, len(tc.want)) {
			t.Fatalf("%s: %d overlay references taken, want one per call that logs", tc.name, refs)
		}
	}
	if oe := h.overlay[unit]; oe == nil || !bytes.Equal(oe.data, img) {
		t.Fatal("the overlay does not hold the whole unit")
	}
	if err := h.VerifyOverlay(); err == nil {
		t.Fatal("VerifyOverlay passed a unit whose bytes 50..63 changed unlogged")
	}
	// Log the rest; now the diff adds up to the unit.
	if err := h.Write(unit, img); err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyOverlay(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRangesPointerForm: a ranged entry of a unit that sits in an op
// record points at its own part of it.
func TestWriteRangesPointerForm(t *testing.T) {
	r := newRig(t, 16<<20)
	h, err := r.connect(r.frontend(1, ModeRCB(1<<20, 8))).Create("ptr", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	unit, _ := h.Alloc(64)
	params := append([]byte("12345678"), bytes.Repeat([]byte{3}, 64)...)
	abs, err := h.OpLog(1, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.write(unit, params[8:], []Range{{16, 8}, {48, 16}}, abs, 8, true); err != nil {
		t.Fatal(err)
	}
	for i, w := range []Range{{16, 8}, {48, 16}} {
		e := h.pending[i]
		if e.Flag != logrec.FlagOpRef || e.OpAbs != abs || int(e.SrcOff) != 8+w.Off || e.Addr != unit+uint64(w.Off) || int(e.Len) != w.Len {
			t.Fatalf("entry %d = %+v, want a pointer to op %d +%d for %+v", i, e, abs, 8+w.Off, w)
		}
	}
	if err := h.EndOp(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadUncached(unit, 64)
	want := make([]byte, 64)
	copy(want[16:24], params[8+16:])
	copy(want[48:], params[8+48:])
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replayed unit %v (err %v), want the two ranges over zeroes", got, err)
	}
}

// TestNaiveModeWritesRangesWhole: the baseline has no log to carry a diff,
// so a ranged write is its whole-unit in-place write.
func TestNaiveModeWritesRangesWhole(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeNaive())
	h, err := r.connect(fe).Create("naive", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Alloc(64)
	before := fe.Stats().BytesWrite.Load()
	val := bytes.Repeat([]byte{9}, 64)
	if err := h.WriteRanges(node, val, Range{Off: 8, Len: 8}); err != nil {
		t.Fatal(err)
	}
	if n := fe.Stats().BytesWrite.Load() - before; n != 64 {
		t.Fatalf("naive ranged write put %d bytes on the fabric, want the 64-byte unit", n)
	}
	if got, err := h.Read(node, 64, false); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("naive read-back failed: %v", err)
	}
}

// TestMaintenanceNeverStacks: maintenance never stacks a round trip of its
// own on a commit. The tail hints are 16 more bytes of every hintEvery-th
// commit vector and no atomic verb, so a prune costs its one atomic load of
// the LPN on whatever flush it falls due — a hint flush included. The flush
// counter is set so that the 49th mark, the first to make a prune due, lands
// on one.
func TestMaintenanceNeverStacks(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeR())
	h, err := r.connect(fe).Create("maint", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	unit, _ := h.Alloc(64)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	h.flushCnt = hintEvery - 1 // hints on flushes 1, 17, 33, 49
	st, img := fe.Stats(), make([]byte, 64)
	flush := func(i int) (atomics, wrote int64) {
		img[0] = byte(i)
		if err := h.Write(unit, img); err != nil {
			t.Fatal(err)
		}
		before := st.Snapshot()
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		d := st.Snapshot().Sub(before)
		if d.RDMAWrite != 1 {
			t.Fatalf("flush %d: %d write verbs, want the commit's one", i, d.RDMAWrite)
		}
		return d.RDMAAtomic, d.BytesWrite
	}
	_, hinted := flush(1)
	_, plain := flush(2)
	if hinted != plain+int64(len(h.hintBuf)) {
		t.Fatalf("a hint flush wrote %d bytes, a plain one %d: want the 16 hint bytes more", hinted, plain)
	}
	for i := 3; i <= pruneMarks; i++ {
		want := plain
		if i%hintEvery == 1 {
			want = hinted
		}
		if atomics, wrote := flush(i); atomics != 0 || wrote != want {
			t.Fatalf("flush %d: %d atomic verbs and %d bytes, want none and %d", i, atomics, wrote, want)
		}
	}
	if err := h.waitReplayed(true); err != nil {
		t.Fatal(err)
	}
	if atomics, wrote := flush(pruneMarks + 1); atomics != 1 || wrote != hinted || len(h.marks) > 1 {
		t.Fatalf("hint flush with a prune due: %d atomic verbs, %d bytes, %d marks left; want the prune's LPN load, %d bytes and at most the newest mark",
			atomics, wrote, len(h.marks), hinted)
	}
}
