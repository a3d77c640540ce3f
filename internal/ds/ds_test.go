package ds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/fault"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
)

var zprof = clock.ZeroProfile()

var testCreate = core.CreateOptions{MemLogSize: 1 << 20, OpLogSize: 512 << 10}

type rig struct {
	t  *testing.T
	bk *backend.Backend
}

func newRig(t *testing.T) *rig {
	t.Helper()
	dev := nvm.NewDevice(256 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	t.Cleanup(func() {
		bk.Stop()
		if err := bk.ReplicationError(); err != nil {
			t.Errorf("backend background error: %v", err)
		}
	})
	return &rig{t: t, bk: bk}
}

func (r *rig) conn(id uint16, mode core.Mode) *core.Conn {
	fe := core.NewFrontend(core.FrontendOptions{ID: id, Mode: mode, Profile: &zprof})
	c, err := fe.Connect(r.bk)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

func val(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }

// --- stack ---

func TestStackLIFO(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR())
	s, err := CreateStack(c, "st", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Push(val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 49; i >= 0; i-- {
		v, ok, err := s.Pop()
		if err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("pop %d: got %q", i, v)
		}
	}
	if _, ok, _ := s.Pop(); ok {
		t.Fatal("pop from empty stack returned a value")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStackAnnihilation(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(1<<20, 1024))
	s, err := CreateStack(c, "annul", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	fe := c.Frontend()
	for i := 0; i < 100; i++ {
		if err := s.Push(val(i)); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Pop()
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("pop %d: %v %v %q", i, ok, err, v)
		}
	}
	st := fe.Stats().Snapshot()
	if st.OpsAnnulled < 190 {
		t.Fatalf("expected ~200 annulled ops, got %d", st.OpsAnnulled)
	}
	if st.MemLogs != 0 {
		t.Fatalf("fully annulled push/pop pairs must produce no memory logs, got %d", st.MemLogs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStackPersistsAcrossReopen(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR())
	s, err := CreateStack(c, "persist", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_ = s.Push(val(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := r.conn(2, core.ModeR())
	s2, err := OpenStack(c2, "persist", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 9; i >= 0; i-- {
		v, ok, err := s2.Pop()
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("reopened pop %d: %v %v %q", i, ok, err, v)
		}
	}
	_ = s2.Close()
}

// --- queue ---

func TestQueueFIFO(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR())
	q, err := CreateQueue(c, "q", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := q.Enqueue(val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		v, ok, err := q.Dequeue()
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("dequeue %d: %v %v %q", i, ok, err, v)
		}
	}
	if _, ok, _ := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue returned a value")
	}
	_ = q.Close()
}

func TestQueueInterleaved(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(1<<20, 64))
	q, err := CreateQueue(c, "qi", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	// Model queue for comparison.
	var model [][]byte
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			v := val(i)
			if err := q.Enqueue(v); err != nil {
				t.Fatal(err)
			}
			model = append(model, v)
		} else {
			v, ok, err := q.Dequeue()
			if err != nil || !ok {
				t.Fatalf("dequeue: %v %v", ok, err)
			}
			if !bytes.Equal(v, model[0]) {
				t.Fatalf("fifo order broken at %d: got %q want %q", i, v, model[0])
			}
			model = model[1:]
		}
	}
	if q.Len() != len(model) {
		t.Fatalf("len %d, model %d", q.Len(), len(model))
	}
	_ = q.Close()
}

func TestQueuePersistsAcrossReopen(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(1<<20, 16))
	q, _ := CreateQueue(c, "qp", Options{Create: testCreate})
	for i := 0; i < 20; i++ {
		_ = q.Enqueue(val(i))
	}
	_ = q.Close()
	c2 := r.conn(2, core.ModeR())
	q2, err := OpenQueue(c2, "qp", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 20 {
		t.Fatalf("reopened len %d", q2.Len())
	}
	for i := 0; i < 20; i++ {
		v, ok, _ := q2.Dequeue()
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("reopened dequeue %d: %q", i, v)
		}
	}
	_ = q2.Close()
}

// --- generic KV behaviour, run against every index structure ---

type kvCase struct {
	name string
	make func(c *core.Conn, name string) (KV, error)
	open func(c *core.Conn, name string, writer bool) (KV, error)
}

func kvCases() []kvCase {
	opts := Options{Create: testCreate, Buckets: 512}
	return []kvCase{
		{"hashtable",
			func(c *core.Conn, n string) (KV, error) { return CreateHashTable(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenHashTable(c, n, w, opts) }},
		{"skiplist",
			func(c *core.Conn, n string) (KV, error) { return CreateSkipList(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenSkipList(c, n, w, opts) }},
		{"bst",
			func(c *core.Conn, n string) (KV, error) { return CreateBST(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenBST(c, n, w, opts) }},
		{"bptree",
			func(c *core.Conn, n string) (KV, error) { return CreateBPTree(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenBPTree(c, n, w, opts) }},
		{"mvbst",
			func(c *core.Conn, n string) (KV, error) { return CreateMVBST(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenMVBST(c, n, w, opts) }},
		{"mvbptree",
			func(c *core.Conn, n string) (KV, error) { return CreateMVBPTree(c, n, opts) },
			func(c *core.Conn, n string, w bool) (KV, error) { return OpenMVBPTree(c, n, w, opts) }},
	}
}

// kvHandle returns an index structure's framework handle.
func kvHandle(kv KV) *core.Handle {
	return kv.(interface{ Handle() *core.Handle }).Handle()
}

func TestKVPutGetOracle(t *testing.T) {
	for _, tc := range kvCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			c := r.conn(1, core.ModeRC(4<<20))
			kv, err := tc.make(c, "kv-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint64][]byte{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 1200; i++ {
				k := uint64(rng.Intn(400)) + 1
				v := val(rng.Intn(100000))
				if err := kv.Put(k, v); err != nil {
					t.Fatalf("put %d: %v", k, err)
				}
				oracle[k] = v
				// Unbatched, a prune retires the overlay every few dozen puts:
				// check it against replayed NVM well inside that window.
				if i%8 == 7 {
					verifyOverlays(t, kvHandle(kv))
				}
			}
			for k, want := range oracle {
				got, ok, err := kv.Get(k)
				if err != nil {
					t.Fatalf("get %d: %v", k, err)
				}
				if !ok {
					t.Fatalf("key %d missing", k)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("key %d: got %q want %q", k, got, want)
				}
			}
			if _, ok, _ := kv.Get(999999); ok {
				t.Fatal("absent key reported present")
			}
			if err := kv.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKVBatchedMatchesOracle(t *testing.T) {
	for _, tc := range kvCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			c := r.conn(1, core.ModeRCB(4<<20, 128))
			kv, err := tc.make(c, "kvb-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint64][]byte{}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 600; i++ {
				k := uint64(rng.Intn(300)) + 1
				v := val(i)
				if err := kv.Put(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
				// The writer must read its own unflushed writes.
				if got, ok, err := kv.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
					t.Fatalf("read-your-writes broken for %d: %v %v", k, ok, err)
				}
			}
			verifyOverlays(t, kvHandle(kv))
			for k, want := range oracle {
				got, ok, _ := kv.Get(k)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("after flush key %d wrong", k)
				}
			}
		})
	}
}

func TestKVVisibleToFreshReaderAfterDrain(t *testing.T) {
	for _, tc := range kvCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			c := r.conn(1, core.ModeRCB(4<<20, 32))
			kv, err := tc.make(c, "kvr-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 200; i++ {
				if err := kv.Put(uint64(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, kvHandle(kv))
			type drainer interface{ Drain() error }
			if err := kv.(drainer).Drain(); err != nil {
				t.Fatal(err)
			}
			// A different front-end node opens read-only and must see
			// everything straight from back-end NVM.
			c2 := r.conn(2, core.ModeRC(4<<20))
			rd, err := tc.open(c2, "kvr-"+tc.name, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 200; i++ {
				got, ok, err := rd.Get(uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				if !ok || !bytes.Equal(got, val(i)) {
					t.Fatalf("reader missing key %d (ok=%v)", i, ok)
				}
			}
		})
	}
}

func TestHashTableDelete(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	ht, err := CreateHashTable(c, "del", Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		_ = ht.Put(uint64(i), val(i))
	}
	for i := 1; i <= 100; i += 2 {
		ok, err := ht.Delete(uint64(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if ok, _ := ht.Delete(1); ok {
		t.Fatal("double delete succeeded")
	}
	verifyOverlays(t, ht.Handle())
	for i := 1; i <= 100; i++ {
		_, ok, _ := ht.Get(uint64(i))
		if i%2 == 1 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 0 && !ok {
			t.Fatalf("kept key %d lost", i)
		}
	}
	_ = ht.Close()
}

func TestBPTreeSplitsDeep(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(8<<20))
	bt, err := CreateBPTree(c, "deep", Options{Create: core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 2 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential keys force a steady stream of splits and root growth, every
	// one at the right edge of its node; the odd keys then arrive shuffled,
	// so leaves and internal nodes also insert and split below their
	// midpoint — the case where the kept half of a split has shifted slots
	// of its own to log.
	n := 5000
	order := make([]int, 0, 2*n)
	for i := 1; i <= n; i++ {
		order = append(order, 2*i)
	}
	for _, i := range rand.New(rand.NewSource(5)).Perm(n) {
		order = append(order, 2*i+1)
	}
	for j, k := range order {
		if err := bt.Put(uint64(k), val(k)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if j%8 == 7 {
			verifyOverlays(t, bt.Handle())
		}
	}
	for _, k := range order {
		got, ok, err := bt.Get(uint64(k))
		if err != nil || !ok || !bytes.Equal(got, val(k)) {
			t.Fatalf("get %d after splits: ok=%v err=%v", k, ok, err)
		}
	}
	// Range scan across leaves.
	keys, vals, err := bt.Scan(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 50 || keys[0] != 100 || keys[49] != 149 || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("scan wrong: %d keys, first=%d last=%d", len(keys), keys[0], keys[len(keys)-1])
	}
	if !bytes.Equal(vals[0], val(100)) {
		t.Fatal("scan values wrong")
	}
	_ = bt.Close()
}

func TestBSTVectorPut(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(4<<20, 256))
	bt, err := CreateBST(c, "vec", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	oracle := map[uint64][]byte{}
	for round := 0; round < 5; round++ {
		var keys []uint64
		var vals [][]byte
		for i := 0; i < 100; i++ {
			k := uint64(rng.Intn(1000)) + 1
			v := val(rng.Intn(100000))
			keys = append(keys, k)
			vals = append(vals, v)
		}
		// Later duplicates win within a vector; mimic by applying in
		// sorted order like the implementation, so use unique keys only.
		seen := map[uint64]bool{}
		var uk []uint64
		var uv [][]byte
		for i, k := range keys {
			if !seen[k] {
				seen[k] = true
				uk = append(uk, k)
				uv = append(uv, vals[i])
			}
		}
		if err := bt.VectorPut(uk, uv); err != nil {
			t.Fatal(err)
		}
		for i, k := range uk {
			oracle[k] = uv[i]
		}
	}
	verifyOverlays(t, bt.Handle())
	for k, want := range oracle {
		got, ok, _ := bt.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("vector key %d wrong (ok=%v)", k, ok)
		}
	}
	_ = bt.Close()
}

func TestBPTreeVectorPut(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(4<<20, 256))
	bt, err := CreateBPTree(c, "vecb", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	var vals [][]byte
	for i := 1; i <= 500; i++ {
		keys = append(keys, uint64(i*7%1000+1))
		vals = append(vals, val(i))
	}
	seen := map[uint64]bool{}
	var uk []uint64
	var uv [][]byte
	for i, k := range keys {
		if !seen[k] {
			seen[k] = true
			uk = append(uk, k)
			uv = append(uv, vals[i])
		}
	}
	if err := bt.VectorPut(uk, uv); err != nil {
		t.Fatal(err)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, k := range uk {
		got, ok, _ := bt.Get(k)
		if !ok || !bytes.Equal(got, uv[i]) {
			t.Fatalf("vector key %d wrong", k)
		}
	}
	_ = bt.Close()
}

func TestMVBSTReaderSeesFrozenVersions(t *testing.T) {
	r := newRig(t)
	cW := r.conn(1, core.ModeR())
	mv, err := CreateMVBST(cW, "frozen", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		_ = mv.Put(uint64(i), val(i))
	}
	if err := mv.Drain(); err != nil {
		t.Fatal(err)
	}
	cR := r.conn(2, core.ModeRC(1<<20))
	rd, err := OpenMVBST(cR, "frozen", false, Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		got, ok, err := rd.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("mv reader key %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Update every key; after drain the reader observes the new version.
	for i := 1; i <= 50; i++ {
		_ = mv.Put(uint64(i), val(1000+i))
	}
	if err := mv.Drain(); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := rd.Get(25)
	if !ok || !bytes.Equal(got, val(1025)) {
		t.Fatalf("mv reader did not observe new version: %q", got)
	}
}

func TestPendingOpReexecution(t *testing.T) {
	// An op record is sealed but the memory logs of its commit never
	// arrive (§7.2 Case 2.c: the front-end dies inside the commit flush,
	// between the segments). Reopening must re-execute it.
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(1<<20, 1000))
	ht, err := CreateHashTable(c, "pend", Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Committed baseline; Close releases the coarse writer lock.
	_ = ht.Put(1, val(1))
	if err := ht.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := r.conn(2, core.ModeR())
	ht2, err := OpenHashTable(c2, "pend", true, Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	c2.Endpoint().SetFault(fault.LoseCommitRecord(c2.Frontend().Stats()))
	if err := ht2.Put(2, val(2)); !errors.Is(err, rdma.ErrDisconnected) {
		t.Fatalf("put through a dying commit flush = %v, want ErrDisconnected", err)
	}
	// Front-end 2 is gone: op record durable, no tx. Its lock is stale.
	c3 := r.conn(3, core.ModeR())
	h3, err := c3.Open("pend", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h3.BreakLock(2); err != nil {
		t.Fatal(err)
	}
	ht3, err := OpenHashTable(c3, "pend", true, Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ht3.Drain(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ht3.Get(2)
	if err != nil || !ok || !bytes.Equal(got, val(2)) {
		t.Fatalf("pending op not re-executed: ok=%v err=%v", ok, err)
	}
	if got, ok, _ := ht3.Get(1); !ok || !bytes.Equal(got, val(1)) {
		t.Fatal("baseline key lost")
	}
}

// TestPutMultiAbortsOnError: a PutMulti whose commit flush fails rolls
// the whole group back — the writer's own view and a fresh reader's both
// keep the old values — and the handle stays usable.
func TestPutMultiAbortsOnError(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	ht, err := CreateHashTable(c, "pm", Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3, 4}
	olds := [][]byte{val(1), val(2), val(3), val(4)}
	news := [][]byte{val(11), val(12), val(13), val(14)}
	if err := ht.PutMulti(keys, olds); err != nil {
		t.Fatal(err)
	}
	if err := ht.PutMulti(keys, news[:3]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// The link drops before any segment of the group's flush lands.
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpWrite {
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		return rdma.Fault{}
	})
	if err := ht.PutMulti(keys, news); !errors.Is(err, rdma.ErrDisconnected) {
		t.Fatalf("put multi over a dead link = %v, want ErrDisconnected", err)
	}
	c.Endpoint().SetFault(nil)
	check := func(kv *HashTable, who string, want [][]byte) {
		t.Helper()
		for i, k := range keys {
			if got, ok, err := kv.Get(k); err != nil || !ok || !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: key %d = %q ok=%v err=%v, want %q", who, k, got, ok, err, want[i])
			}
		}
	}
	check(ht, "writer after abort", olds)
	if err := ht.Drain(); err != nil {
		t.Fatal(err)
	}
	reader, err := OpenHashTable(r.conn(2, core.ModeR()), "pm", false, Options{Create: testCreate, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	check(reader, "reader after abort", olds)
	if err := ht.PutMulti(keys, news); err != nil {
		t.Fatal(err)
	}
	if err := ht.Drain(); err != nil {
		t.Fatal(err)
	}
	check(reader, "reader after retry", news)
}

func TestPartitionedAcrossBackends(t *testing.T) {
	prof := clock.ZeroProfile()
	var bks []*backend.Backend
	for i := 0; i < 3; i++ {
		dev := nvm.NewDevice(64 << 20)
		bk, err := backend.New(dev, backend.Options{ID: uint16(i), Profile: &prof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		defer bk.Stop()
		bks = append(bks, bk)
	}
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeRC(4 << 20), Profile: &prof})
	var conns []*core.Conn
	for _, bk := range bks {
		c, err := fe.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	p, err := CreatePartitioned(conns, KindBPTree, "pkv", 6, Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 600; i++ {
		k := uint64(i * 2654435761)
		if err := p.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(i)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, _ := p.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("partitioned key %d wrong", k)
		}
	}
	// Reopen via the persisted mapping meta.
	p2, err := OpenSharded(conns, "pkv", false, Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Shards() != 6 {
		t.Fatalf("reopened %d partitions, want 6", p2.Shards())
	}
	got, ok, _ := p2.Get(2654435761)
	if !ok || !bytes.Equal(got, val(1)) {
		t.Fatal("reopened partitioned get wrong")
	}
}

// Property-style test: random op streams against every KV keep matching a
// model map, across a mid-stream flush and reader validation.
func TestKVRandomizedOracle(t *testing.T) {
	for _, tc := range kvCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			c := r.conn(1, core.ModeRCB(4<<20, 64))
			kv, err := tc.make(c, "rand-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint64][]byte{}
			rng := rand.New(rand.NewSource(12345))
			for i := 0; i < 2000; i++ {
				switch rng.Intn(3) {
				case 0, 1:
					k := uint64(rng.Intn(500)) + 1
					v := val(rng.Int())
					if err := kv.Put(k, v); err != nil {
						t.Fatal(err)
					}
					oracle[k] = v
				case 2:
					k := uint64(rng.Intn(500)) + 1
					got, ok, err := kv.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					want, wok := oracle[k]
					if ok != wok || (ok && !bytes.Equal(got, want)) {
						t.Fatalf("divergence at op %d key %d (ok=%v wok=%v)", i, k, ok, wok)
					}
				}
				if i == 1000 {
					verifyOverlays(t, kvHandle(kv))
				}
			}
			verifyOverlays(t, kvHandle(kv))
		})
	}
}
