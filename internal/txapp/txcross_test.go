package txapp

import (
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/nvm"
)

// newMultiBackends builds k back-ends and a front-end connected to all,
// returning both so tests can attach a second front-end.
func newMultiBackends(t *testing.T, k int, mode core.Mode) ([]*backend.Backend, []*core.Conn) {
	t.Helper()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: mode, Profile: &zprof})
	var bks []*backend.Backend
	var conns []*core.Conn
	for i := 0; i < k; i++ {
		dev := nvm.NewDevice(128 << 20)
		bk, err := backend.New(dev, backend.Options{ID: uint16(i), Profile: &zprof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		t.Cleanup(bk.Stop)
		bks = append(bks, bk)
		c, err := fe.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	return bks, conns
}

// TestPartitionedBankCrossShard2PC runs the transfer-heavy mix with
// two-phase commit armed and checks conservation plus that the 2PC path
// actually fired.
func TestPartitionedBankCrossShard2PC(t *testing.T) {
	_, conns := newMultiBackends(t, 2, core.ModeRC(8<<20).WithPipeline(8))
	bank, err := NewPartitionedSmallBank(conns, "xbank", 64, 4, tOpts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := core.NewTxCoordinator(conns[0], "xbank.txc")
	if err != nil {
		t.Fatal(err)
	}
	bank.EnableCrossShardTx(tc)
	before, err := bank.TotalMoney()
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(4242)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 300; i++ {
		r := next()
		if i%2 == 0 {
			r = r/100*100 + 90 // SendPayment band
		} else {
			r = r/100*100 + 50 // Amalgamate band
		}
		if err := bank.DoTx(r); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := bank.Drain(); err != nil {
		t.Fatal(err)
	}
	after, err := bank.TotalMoney()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("money not conserved under 2PC: %d → %d", before, after)
	}
	if bank.CrossShardTxs() == 0 {
		t.Fatal("no transfer crossed partitions")
	}
	st := conns[0].Frontend().Stats()
	if got := int64(st.TxCrossCommits.Load()); got != bank.CrossShardTxs() {
		t.Fatalf("cross-shard commits = %d, bank counted %d", got, bank.CrossShardTxs())
	}
	if st.TxPrepares.Load() < st.TxCrossCommits.Load() {
		t.Fatalf("prepares %d < commits %d", st.TxPrepares.Load(), st.TxCrossCommits.Load())
	}
	// No transaction should be left in doubt after a clean run.
	for _, h := range bank.Table().Handles() {
		if n := len(h.InDoubtPrepares()); n != 0 {
			t.Fatalf("%d prepares left in doubt", n)
		}
	}
}

// TestOrderStoreIndexAtomic places orders across two back-ends and
// checks the primary and the secondary index agree, including through a
// reopen on a fresh front-end.
func TestOrderStoreIndexAtomic(t *testing.T) {
	bks, conns := newMultiBackends(t, 2, core.ModeRC(8<<20).WithPipeline(8))
	st, err := CreateOrderStore(conns[0], conns[1], "ost", tOpts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := core.NewTxCoordinator(conns[0], "ost.txc")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if err := st.PlaceOrder(tc, 1000+i, i%5+1, i*10); err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
	}
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	cust, amt, ok, err := st.Order(1007)
	if err != nil || !ok {
		t.Fatalf("order 1007 missing (ok=%v err=%v)", ok, err)
	}
	if cust != 7%5+1 || amt != 70 {
		t.Fatalf("order 1007 = cust %d amt %d", cust, amt)
	}
	ids, err := st.OrdersByCustomer(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("customer 3 has no indexed orders")
	}
	if err := st.CheckIndex(100); err != nil {
		t.Fatal(err)
	}
	// Fresh reader front-end: index and primary still agree.
	fe2 := core.NewFrontend(core.FrontendOptions{ID: 9, Mode: core.ModeR(), Profile: &zprof})
	c0, err := fe2.Connect(bks[0])
	if err != nil {
		t.Fatal(err)
	}
	c1, err := fe2.Connect(bks[1])
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenOrderStore(c0, c1, "ost", false, tOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.CheckIndex(100); err != nil {
		t.Fatal(err)
	}
}

// TestOrderStoreAbortLeavesNoTrace aborts a placement and checks neither
// half became visible.
func TestOrderStoreAbortLeavesNoTrace(t *testing.T) {
	_, conns := newMultiBackends(t, 2, core.ModeRC(8<<20).WithPipeline(8))
	st, err := CreateOrderStore(conns[0], conns[1], "osta", tOpts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := core.NewTxCoordinator(conns[0], "osta.txc")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PlaceOrder(tc, 500, 1, 42); err != nil {
		t.Fatal(err)
	}
	tx, err := tc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Enroll(st.Handles()...); err != nil {
		t.Fatal(err)
	}
	if err := st.placeBuffered(501, 1, 99); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Order(501); ok {
		t.Fatal("aborted order visible in primary")
	}
	ids, err := st.OrdersByCustomer(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == 501 {
			t.Fatal("aborted order visible in secondary index")
		}
	}
	if err := st.CheckIndex(100); err != nil {
		t.Fatal(err)
	}
	// The store keeps working after the abort.
	if err := st.PlaceOrder(tc, 502, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := st.Order(502); !ok {
		t.Fatal("post-abort order missing")
	}
}

// TestMVSnapshotCrossShardAtomic spans a transaction over two
// multi-version trees on different back-ends and checks a concurrent
// reader front-end never observes the prepared-but-uncommitted halves:
// its snapshot sees either neither write or both.
func TestMVSnapshotCrossShardAtomic(t *testing.T) {
	bks, conns := newMultiBackends(t, 2, core.ModeRC(8<<20).WithPipeline(8))
	w0, err := ds.CreateMVBPTree(conns[0], "mvx0", tOpts)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := ds.CreateMVBPTree(conns[1], "mvx1", tOpts)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(tr *ds.MVBPTree, v byte) {
		if err := tr.Put(1, []byte{v}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	seed(w0, 10)
	seed(w1, 20)

	fe2 := core.NewFrontend(core.FrontendOptions{ID: 9, Mode: core.ModeR(), Profile: &zprof})
	rc0, err := fe2.Connect(bks[0])
	if err != nil {
		t.Fatal(err)
	}
	rc1, err := fe2.Connect(bks[1])
	if err != nil {
		t.Fatal(err)
	}
	r0, err := ds.OpenMVBPTree(rc0, "mvx0", false, tOpts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ds.OpenMVBPTree(rc1, "mvx1", false, tOpts)
	if err != nil {
		t.Fatal(err)
	}
	read := func() (byte, byte) {
		v0, ok, err := r0.Get(1)
		if err != nil || !ok {
			t.Fatalf("reader shard 0: ok=%v err=%v", ok, err)
		}
		v1, ok, err := r1.Get(1)
		if err != nil || !ok {
			t.Fatalf("reader shard 1: ok=%v err=%v", ok, err)
		}
		return v0[0], v1[0]
	}
	if a, b := read(); a != 10 || b != 20 {
		t.Fatalf("pre-tx snapshot = (%d,%d), want (10,20)", a, b)
	}

	tc, err := core.NewTxCoordinator(conns[0], "mvx.txc")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := tc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Enroll(w0.Handle(), w1.Handle()); err != nil {
		t.Fatal(err)
	}
	if err := w0.Put(1, []byte{11}); err != nil {
		t.Fatal(err)
	}
	if err := w1.Put(1, []byte{21}); err != nil {
		t.Fatal(err)
	}
	// Buffered, unprepared: the reader's snapshot must still be the old
	// version on both shards.
	if a, b := read(); a != 10 || b != 20 {
		t.Fatalf("mid-tx snapshot = (%d,%d), want (10,20)", a, b)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := w0.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Drain(); err != nil {
		t.Fatal(err)
	}
	if a, b := read(); a != 11 || b != 21 {
		t.Fatalf("post-commit snapshot = (%d,%d), want (11,21)", a, b)
	}
}
