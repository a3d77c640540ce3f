package ds

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"asymnvm/internal/core"
)

func TestMVBPTreeDeepSplits(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(16<<20, 64))
	mv, err := CreateMVBPTree(c, "mvdeep", Options{Create: core.CreateOptions{MemLogSize: 16 << 20, OpLogSize: 4 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	n := 3000
	for i := 1; i <= n; i++ {
		if err := mv.Put(uint64(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := mv.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		got, ok, err := mv.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Updates install fresh versions without losing neighbours.
	for i := 1; i <= n; i += 7 {
		if err := mv.Put(uint64(i), val(100000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mv.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		want := val(i)
		if i%7 == 1 {
			want = val(100000 + i)
		}
		got, ok, _ := mv.Get(uint64(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after updates, key %d wrong", i)
		}
	}
	_ = mv.Close()
}

// Property: any mix of pushes and pops, batched, matches a slice model —
// including the annihilation fast path.
func TestQuickStackModel(t *testing.T) {
	f := func(seed int64) bool {
		r := newRig(t)
		c := r.conn(1, core.ModeRCB(1<<20, 32))
		s, err := CreateStack(c, "qs", Options{Create: testCreate})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var model [][]byte
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				v := val(rng.Intn(10000))
				if err := s.Push(v); err != nil {
					return false
				}
				model = append(model, v)
			} else {
				v, ok, err := s.Pop()
				if err != nil {
					return false
				}
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !bytes.Equal(v, want) {
						return false
					}
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		// Drain and pop the remainder in order.
		if err := s.Drain(); err != nil {
			return false
		}
		for i := len(model) - 1; i >= 0; i-- {
			v, ok, err := s.Pop()
			if err != nil || !ok || !bytes.Equal(v, model[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListLevelDistribution(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(8<<20))
	sl, err := CreateSkipList(c, "levels", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	levels := map[int]int{}
	for i := 0; i < 4000; i++ {
		levels[sl.randomLevel()]++
	}
	// p=0.5: roughly half the towers have height 1, a quarter height 2…
	if levels[1] < 1500 || levels[1] > 2500 {
		t.Fatalf("level-1 towers: %d of 4000 (want ≈2000)", levels[1])
	}
	if levels[2] < 700 || levels[2] > 1300 {
		t.Fatalf("level-2 towers: %d of 4000 (want ≈1000)", levels[2])
	}
	for l := range levels {
		if l < 1 || l > SkipListMaxLevel {
			t.Fatalf("tower height %d out of range", l)
		}
	}
}

func TestSkipListOrderedTraversalAfterDrain(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(8<<20))
	sl, err := CreateSkipList(c, "ordered", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	keys := map[uint64]bool{}
	for i := 0; i < 800; i++ {
		k := uint64(rng.Intn(100000)) + 1
		if err := sl.Put(k, val(int(k))); err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if err := sl.Drain(); err != nil {
		t.Fatal(err)
	}
	// Walk level 0 from the sentinel: keys must be strictly ascending and
	// complete.
	cur, err := sl.readNode(sl.head, sl.hop[0], -1)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	count := 0
	for addr := slNext(cur, 0); addr != 0; {
		n, err := sl.readNode(addr, sl.hop[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if slKey(n) <= prev {
			t.Fatalf("ordering violated: %d after %d", slKey(n), prev)
		}
		if !keys[slKey(n)] {
			t.Fatalf("phantom key %d", slKey(n))
		}
		prev = slKey(n)
		count++
		addr = slNext(n, 0)
	}
	if count != len(keys) {
		t.Fatalf("level-0 walk found %d keys, want %d", count, len(keys))
	}
	_ = sl.Close()
}

func TestQueueBatchedReopenKeepsOrder(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(1<<20, 16))
	q, err := CreateQueue(c, "qbr", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		_ = q.Enqueue(val(i))
	}
	// Dequeue a few before closing so head != first node.
	for i := 0; i < 7; i++ {
		if _, ok, err := q.Dequeue(); !ok || err != nil {
			t.Fatalf("dequeue: %v %v", ok, err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := r.conn(2, core.ModeR())
	q2, err := OpenQueue(c2, "qbr", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 33 {
		t.Fatalf("reopened len %d, want 33", q2.Len())
	}
	for i := 7; i < 40; i++ {
		v, ok, err := q2.Dequeue()
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("order broken at %d: %q", i, v)
		}
	}
	_ = q2.Close()
}

func TestFlatCacheOptionStillCorrect(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	bt, err := CreateBST(c, "flat", Options{Create: testCreate, FlatCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if err := bt.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 300; i++ {
		got, ok, _ := bt.Get(uint64(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("flat-cache tree lost key %d", i)
		}
	}
	_ = bt.Close()
}

func TestLockPerOpMode(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR())
	bt, err := CreateBST(c, "perop", Options{Create: testCreate, LockPerOp: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := bt.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The lock is free between operations: another writer can take it.
	c2 := r.conn(2, core.ModeR())
	h2, err := c2.Open("perop", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.WriterLock(); err != nil {
		t.Fatal(err)
	}
	if err := h2.WriterUnlock(); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := bt.Get(25)
	if !ok || !bytes.Equal(got, val(25)) {
		t.Fatal("per-op locked tree lost data")
	}
}

func TestValueTooLargeRejected(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR())
	bt, err := CreateBST(c, "big", Options{Create: testCreate, ValueCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Put(1, make([]byte, 64)); err != ErrValueTooLarge {
		t.Fatalf("want ErrValueTooLarge, got %v", err)
	}
	st, err := CreateStack(c, "bigstack", Options{Create: testCreate, ValueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(make([]byte, 64)); err != ErrValueTooLarge {
		t.Fatalf("want ErrValueTooLarge, got %v", err)
	}
}
