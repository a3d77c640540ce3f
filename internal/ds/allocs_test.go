package ds

import (
	"bytes"
	"testing"

	"asymnvm/internal/core"
)

// TestHotPathAllocsUntraced pins the per-operation allocation counts of
// the Get/Put hot path with tracing disabled (the default: no tracer is
// installed, every trace call is a nil-receiver no-op). The tracing plane
// must stay free when off — if these ceilings rise, a trace-path
// allocation leaked onto the hot path.
func TestHotPathAllocsUntraced(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	ht, err := CreateHashTable(c, "allocs", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 32)
	// Warm the structure, cache and log areas so steady state is measured.
	for i := 0; i < 256; i++ {
		if err := ht.Put(uint64(i%16+1), val); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ht.Get(uint64(i%16 + 1)); err != nil {
			t.Fatal(err)
		}
	}

	putAllocs := testing.AllocsPerRun(200, func() {
		if err := ht.Put(3, val); err != nil {
			t.Fatal(err)
		}
	})
	getAllocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ht.Get(3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("untraced hot path: put=%.1f get=%.1f allocs/op", putAllocs, getAllocs)

	// Ceilings bound regressions; they are not targets: one above the
	// measured steady-state counts. A put measures 0: its parameters, the
	// chain walk and the node image live in the table's buffers, the commit
	// flush builds in the handle's reused scratch, and overlay entries and
	// flush-mark address lists come back from the prune. A get measures 1,
	// the value it returns.
	const putCeiling, getCeiling = 1, 2
	if putAllocs > putCeiling {
		t.Errorf("Put allocates %.1f/op untraced, ceiling %d", putAllocs, putCeiling)
	}
	if getAllocs > getCeiling {
		t.Errorf("Get allocates %.1f/op untraced, ceiling %d", getAllocs, getCeiling)
	}
}

// TestSkipListGetAllocsUntraced pins the read-only descent: it finds its
// anchor in the cache, fetches every node it walks into the structure's two
// hop buffers, and admits their headers into entries the evictions it
// causes hand back — so a Get allocates only the value it returns, copied
// out of the whole unit it was read in.
func TestSkipListGetAllocsUntraced(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(8<<10)) // a quarter of the headers: every get evicts
	sl, err := CreateSkipList(c, "allocs", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2048
	for i := 1; i <= keys; i++ {
		if err := sl.Put(uint64(i)*2, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Retire the overlay so reads come from the cache and the fabric, then
	// let one pass bring the cache to its steady state.
	if err := sl.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= keys; i++ {
		if _, ok, err := sl.Get(uint64(i) * 2); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i*2, ok, err)
		}
	}
	evicts := &c.Frontend().Stats().CacheEvict
	before := evicts.Load()
	k := uint64(0)
	hitAllocs := testing.AllocsPerRun(keys-1, func() {
		k += 2
		if _, ok, err := sl.Get(k); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
	})
	k = 1
	missAllocs := testing.AllocsPerRun(keys-1, func() {
		k += 2
		if _, ok, err := sl.Get(k); err != nil || ok {
			t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
	})
	evicted := evicts.Load() - before
	t.Logf("untraced skip-list get: found=%.2f absent=%.2f allocs/op, %d evictions", hitAllocs, missAllocs, evicted)
	if evicted < keys {
		t.Fatalf("%d evictions over %d gets: the cache was meant to churn", evicted, 2*keys)
	}
	// Measured 1 and 0; the ceilings are one above.
	const hitCeiling, missCeiling = 2, 1
	if hitAllocs > hitCeiling {
		t.Errorf("Get of a present key allocates %.2f/op untraced, ceiling %d", hitAllocs, hitCeiling)
	}
	if missAllocs > missCeiling {
		t.Errorf("Get of an absent key allocates %.2f/op untraced, ceiling %d", missAllocs, missCeiling)
	}
}

// TestBPTreeAllocsUntraced pins the paper's headline cell, batch 64 behind
// a depth-8 pipeline: a put walks and patches node images in the tree's
// per-depth buffers and logs from its parameter buffer, and the handle
// recycles what its commit flushes and prunes retire. The cache holds a
// tenth of the leaves, so the descent's views are evicted under it all the
// time.
func TestBPTreeAllocsUntraced(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRCB(12<<10, 64).WithPipeline(8))
	bt, err := CreateBPTree(c, "allocs", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	// Every other key, in an order that splits leaves all over the tree; then
	// enough updates to take the handle past its first overlay prunes, which
	// prime its free lists.
	const keys = 4096
	v := make([]byte, 32)
	k := uint64(0)
	next := func() uint64 { k = (k + 1657) % (2 * keys); return k + 1 }
	for i := 0; i < keys; {
		if key := next(); key%2 == 0 {
			if err := bt.Put(key, v); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	for i := 0; i < 2*keys; i++ {
		if err := bt.Put(2*uint64(i%keys)+2, v); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Frontend().Stats()
	evicts, commits, memlogs := st.CacheEvict.Load(), st.TxCommits.Load(), st.MemLogs.Load()
	// 1 024 puts, odd keys and even: half insert — with their leaf splits —
	// and half update. AllocsPerRun runs the body twice, once to warm up.
	const puts = 1024
	putAllocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < puts; i++ {
			if err := bt.Put(next(), v); err != nil {
				t.Fatal(err)
			}
		}
	}) / puts
	evicts, commits, memlogs = st.CacheEvict.Load()-evicts, st.TxCommits.Load()-commits, st.MemLogs.Load()-memlogs
	// A put whose leaf the overlay still holds admits nothing — how many do
	// follows the prune, and so the replayer; the others each evict. Splits
	// show as log entries beyond an update's one and an insert's three.
	if evicts < puts/8 || commits < 2*puts/64 || memlogs < 2*puts*5/2 {
		t.Fatalf("%d puts: %d evictions, %d commits, %d log entries: meant to churn the cache, flush every 64 and split leaves", 2*puts, evicts, commits, memlogs)
	}
	// The puts left the cache full of nodes; let a pass of gets bring it to
	// their steady state, where blobs make room for blobs.
	for i := 0; i < keys; i++ {
		if _, ok, err := bt.Get(next()&^1 + 2); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
	getAllocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := bt.Get(next()&^1 + 2); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	})
	absentAllocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := bt.Get(4*keys + next()); err != nil || ok {
			t.Fatalf("get of an absent key: ok=%v err=%v", ok, err)
		}
	})
	t.Logf("untraced b+tree: put=%.3f get=%.1f absent=%.1f allocs/op, %d evictions over the puts", putAllocs, getAllocs, absentAllocs, evicts)
	if putAllocs > 0.25 {
		t.Errorf("Put allocates %.3f/op untraced over %d inserts and updates, ceiling 0.25", putAllocs, puts)
	}
	if getAllocs != 1 {
		t.Errorf("Get of a present key allocates %.1f/op untraced, want 1: the value", getAllocs)
	}
	if absentAllocs != 0 {
		t.Errorf("Get of an absent key allocates %.1f/op untraced, want 0", absentAllocs)
	}
}

// TestHashTableReadAllocsUntraced pins the two lookups the serving tier runs:
// GetInto appends the value to a buffer its caller keeps, and GetMulti walks
// eight chains in the table's own scratch — heads, level lists, ReadMulti's
// slab and miss lists, the slab of matched values. Neither allocates, whether
// the cache holds the whole table or a tenth of it, where every batch
// fetches, admits and evicts.
func TestHashTableReadAllocsUntraced(t *testing.T) {
	const keys = 1024
	const footprint = keys*(htHdr+64) + 256*8
	want := make([][]byte, keys+1)
	for _, row := range []struct {
		name  string
		cache int64
	}{{"fits", 2 * footprint}, {"tenth", footprint / 10}} {
		t.Run(row.name, func(t *testing.T) {
			c := newRig(t).conn(1, core.ModeRC(row.cache))
			ht, err := CreateHashTable(c, "allocs", Options{Create: testCreate, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= keys; k++ {
				want[k] = val(int(k))
				if err := ht.Put(k, want[k]); err != nil {
					t.Fatal(err)
				}
			}
			if err := ht.Drain(); err != nil {
				t.Fatal(err)
			}
			x := uint64(0x9E3779B97F4A7C15)
			next := func() uint64 { // present and, one time in nine, absent
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x%(keys+keys/8) + 1
			}
			var dst []byte
			batch := make([]uint64, 8)
			get := func() {
				k := next()
				v, ok, err := ht.GetInto(k, dst[:0])
				if err != nil || ok != (k <= keys) || ok && !bytes.Equal(v, want[k]) {
					t.Fatalf("get %d: %q ok=%v err=%v", k, v, ok, err)
				}
				dst = v
			}
			multi := func() {
				for i := range batch {
					batch[i] = next()
				}
				vals, found, err := ht.GetMulti(batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range batch {
					if found[i] != (k <= keys) || found[i] && !bytes.Equal(vals[i], want[k]) {
						t.Fatalf("multi-get %d: %q found=%v", k, vals[i], found[i])
					}
				}
			}
			// One pass brings the cache, its free lists and the table's scratch
			// to their steady state.
			for i := 0; i < keys; i++ {
				get()
				multi()
			}
			evicts := &c.Frontend().Stats().CacheEvict
			before := evicts.Load()
			getAllocs := testing.AllocsPerRun(500, get)
			multiAllocs := testing.AllocsPerRun(500, multi)
			evicted := evicts.Load() - before
			t.Logf("untraced hash table: getinto=%.3f getmulti8=%.3f allocs/op, %d evictions", getAllocs, multiAllocs, evicted)
			if row.cache < footprint && evicted < 1000 {
				t.Fatalf("%d evictions over 1 000 lookups: the cache was meant to churn", evicted)
			}
			if getAllocs != 0 {
				t.Errorf("GetInto a kept buffer allocates %.3f/op untraced, want 0", getAllocs)
			}
			if multiAllocs != 0 {
				t.Errorf("GetMulti of 8 keys allocates %.3f/op untraced, want 0", multiAllocs)
			}
		})
	}
}
