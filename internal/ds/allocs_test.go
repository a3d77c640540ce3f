package ds

import (
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
	// measured steady-state counts (put 6: the commit flush builds its
	// vector in the handle's reused scratch, entry values slice into the
	// transaction's arena and the entry list is reused — what is left is
	// the op parameters, two reads, the decoded value, the node image and
	// the flush mark's address list).
	const putCeiling, getCeiling = 7, 4
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
