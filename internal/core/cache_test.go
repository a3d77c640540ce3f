package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"asymnvm/internal/stats"
)

func newCache(capacity int64, p Policy) (*Cache, *stats.Stats) {
	st := &stats.Stats{}
	return NewCache(capacity, p, st), st
}

func TestCachePutGet(t *testing.T) {
	c, st := newCache(1<<20, PolicyHybrid)
	c.Put(100, []byte("hello"), 1, EpochAlways)
	got, ok := c.Get(100, 0, true)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("get: %q %v", got, ok)
	}
	if _, ok := c.Get(200, 0, true); ok {
		t.Fatal("absent key hit")
	}
	s := st.Snapshot()
	if s.CacheHit != 1 || s.CacheMiss != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestCacheUncountedMiss(t *testing.T) {
	c, st := newCache(1<<20, PolicyHybrid)
	if _, ok := c.Get(1, 0, false); ok {
		t.Fatal("hit on empty cache")
	}
	if st.Snapshot().CacheMiss != 0 {
		t.Fatal("direct-read miss must not count")
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	c, _ := newCache(1<<20, PolicyHybrid)
	c.Put(5, []byte("v1"), 0, 10)
	if _, ok := c.Get(5, 10, true); !ok {
		t.Fatal("same-epoch entry must hit")
	}
	// A different seqlock epoch invalidates the entry.
	if _, ok := c.Get(5, 12, true); ok {
		t.Fatal("stale-epoch entry must miss")
	}
	if c.Contains(5) {
		t.Fatal("stale entry must be dropped")
	}
	// EpochAlways entries survive any epoch.
	c.Put(6, []byte("v2"), 0, EpochAlways)
	if _, ok := c.Get(6, 999, true); !ok {
		t.Fatal("EpochAlways entry must hit")
	}
}

func TestCacheUpdateWriteThrough(t *testing.T) {
	c, _ := newCache(1<<20, PolicyHybrid)
	c.Put(7, []byte("aaaa"), 0, EpochAlways)
	if !c.Update(7, 1, []byte("XY")) {
		t.Fatal("update of present entry failed")
	}
	got, _ := c.Get(7, 0, true)
	if string(got) != "aXYa" {
		t.Fatalf("write-through got %q", got)
	}
	if c.Update(99, 0, []byte("z")) {
		t.Fatal("update of absent entry must report false")
	}
	// Out-of-range update drops the entry rather than corrupting it.
	if c.Update(7, 3, []byte("toolong")) {
		t.Fatal("out-of-range update must fail")
	}
	if c.Contains(7) {
		t.Fatal("mismatched entry must be dropped")
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	c, st := newCache(1024, PolicyLRU)
	for i := uint64(0); i < 32; i++ {
		c.Put(i, make([]byte, 64), 0, EpochAlways) // 2 KiB total demand
	}
	if c.Used() > 1024 {
		t.Fatalf("cache overfull: %d", c.Used())
	}
	if st.Snapshot().CacheEvict == 0 {
		t.Fatal("no evictions recorded")
	}
	// LRU: the most recent entries survive.
	if _, ok := c.Get(31, 0, true); !ok {
		t.Fatal("most recent entry evicted under LRU")
	}
	if _, ok := c.Get(0, 0, true); ok {
		t.Fatal("oldest entry survived under LRU")
	}
}

func TestCacheOversizeBypass(t *testing.T) {
	c, _ := newCache(128, PolicyHybrid)
	c.Put(1, make([]byte, 256), 0, EpochAlways)
	if c.Len() != 0 {
		t.Fatal("oversize entry must bypass the cache")
	}
}

func TestCacheInvalidateTagAndClear(t *testing.T) {
	c, _ := newCache(1<<20, PolicyHybrid)
	c.Put(1, []byte("a"), 7, EpochAlways)
	c.Put(2, []byte("b"), 7, EpochAlways)
	c.Put(3, []byte("c"), 8, EpochAlways)
	c.InvalidateTag(7)
	if c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("tag invalidation wrong")
	}
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("clear left state")
	}
}

func TestCacheHybridKeepsHotEntries(t *testing.T) {
	c, _ := newCache(64*100, PolicyHybrid) // room for 100 entries
	// 20 hot keys touched constantly, 2000 cold keys streaming through.
	for round := 0; round < 50; round++ {
		for k := uint64(0); k < 20; k++ {
			if _, ok := c.Get(k, 0, true); !ok {
				c.Put(k, make([]byte, 64), 0, EpochAlways)
			}
		}
		for k := uint64(1000 + 40*round); k < uint64(1000+40*round+40); k++ {
			if _, ok := c.Get(k, 0, true); !ok {
				c.Put(k, make([]byte, 64), 0, EpochAlways)
			}
		}
	}
	hot := 0
	for k := uint64(0); k < 20; k++ {
		if c.Contains(k) {
			hot++
		}
	}
	if hot < 15 {
		t.Fatalf("hybrid policy retained only %d/20 hot entries", hot)
	}
}

func TestCacheReplacePolicyRandomStillBounded(t *testing.T) {
	c, _ := newCache(64*10, PolicyRR)
	for i := uint64(0); i < 1000; i++ {
		c.Put(i, make([]byte, 64), 0, EpochAlways)
	}
	if c.Len() > 10 {
		t.Fatalf("RR cache overfull: %d entries", c.Len())
	}
}

// TestCacheInvalidateTagIndexed pins the per-tag index: invalidating one
// structure's entries must visit only that tag's set, not the whole map.
func TestCacheInvalidateTagIndexed(t *testing.T) {
	c, _ := newCache(64*20000, PolicyLRU)
	const bulk, tagged = 10000, 10
	for i := uint64(0); i < bulk; i++ {
		c.Put(i, make([]byte, 64), 1, EpochAlways)
	}
	for i := uint64(bulk); i < bulk+tagged; i++ {
		c.Put(i, make([]byte, 64), 2, EpochAlways)
	}
	c.InvalidateTag(2)
	if c.tagScanned != tagged {
		t.Fatalf("InvalidateTag(2) scanned %d entries, want exactly %d (per-tag index)", c.tagScanned, tagged)
	}
	if c.Len() != bulk {
		t.Fatalf("cache holds %d entries after invalidation, want %d", c.Len(), bulk)
	}
	for i := uint64(bulk); i < bulk+tagged; i++ {
		if c.Contains(i) {
			t.Fatalf("entry %d survived InvalidateTag", i)
		}
	}
	// An absent tag scans nothing.
	c.InvalidateTag(9)
	if c.tagScanned != 0 {
		t.Fatalf("InvalidateTag(9) scanned %d entries, want 0", c.tagScanned)
	}
}

// TestCacheTagIndexConsistency exercises the index across replacement
// (tag changes on Put), eviction, Clear and re-fill.
func TestCacheTagIndexConsistency(t *testing.T) {
	c, _ := newCache(64*8, PolicyLRU)
	for i := uint64(0); i < 8; i++ {
		c.Put(i, make([]byte, 64), 1, EpochAlways)
	}
	// Re-tag half of them in place.
	for i := uint64(0); i < 4; i++ {
		c.Put(i, make([]byte, 64), 2, EpochAlways)
	}
	c.InvalidateTag(1)
	if c.tagScanned != 4 || c.Len() != 4 {
		t.Fatalf("after re-tag: scanned %d (want 4), len %d (want 4)", c.tagScanned, c.Len())
	}
	// Evictions must drop entries out of the index too.
	for i := uint64(100); i < 116; i++ {
		c.Put(i, make([]byte, 64), 3, EpochAlways)
	}
	c.InvalidateTag(2)
	if c.tagScanned != 0 {
		t.Fatalf("tag-2 entries evicted but index still held %d", c.tagScanned)
	}
	c.Clear()
	c.Put(7, make([]byte, 64), 3, EpochAlways)
	c.InvalidateTag(3)
	if c.tagScanned != 1 || c.Len() != 0 {
		t.Fatalf("after Clear+refill: scanned %d (want 1), len %d (want 0)", c.tagScanned, c.Len())
	}
}

// BenchmarkCacheInvalidateTag measures per-structure invalidation with a
// large foreign population — the case the per-tag index exists for.
func BenchmarkCacheInvalidateTag(b *testing.B) {
	c, _ := newCache(64*200001, PolicyLRU)
	for i := uint64(0); i < 200000; i++ {
		c.Put(i, make([]byte, 64), 1, EpochAlways)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(1<<40, make([]byte, 64), 2, EpochAlways)
		c.InvalidateTag(2)
	}
}

// A prefix image holds the leading bytes of a larger unit: it is accounted
// at its own length, survives the write-through of the whole unit with its
// bytes patched, answers a probe by address or by key, and lets a read of
// the whole unit pass it by — while a whole-unit entry still drops on a
// write, or a read, of a size it does not cover.
func TestCachePrefixImage(t *testing.T) {
	c, _ := newCache(1<<20, PolicyHybrid)
	unit := bytes.Repeat([]byte{1}, 208)
	c.PutKeyed(10, unit[:40], len(unit), 0, EpochAlways, 77, 2)
	if c.Used() != 40 {
		t.Fatalf("Used() = %d, want the prefix length 40", c.Used())
	}
	if got, ok := c.GetUnit(10, len(unit), 0, true); ok || !c.Contains(10) {
		t.Fatalf("GetUnit of a prefix image for the whole unit: %d bytes ok=%v kept=%v, want a miss that keeps the entry", len(got), ok, c.Contains(10))
	}
	if got, ok := c.Get(10, 0, true); !ok || len(got) != 40 {
		t.Fatalf("Get of a prefix image: %d bytes ok=%v, want the 40-byte image", len(got), ok)
	}
	if addr, got, _, ok := c.Floor(0, 100, 0, 0); !ok || addr != 10 || len(got) != 40 {
		t.Fatalf("Floor(100) = addr %d, %d bytes, ok=%v; want the image under key 77", addr, len(got), ok)
	}

	// Write-through of the full unit: the prefix takes its part.
	unit2 := bytes.Repeat([]byte{2}, 208)
	if !c.Update(10, 0, unit2) {
		t.Fatal("full-unit update dropped the prefix entry")
	}
	if got, ok := c.Get(10, 0, true); !ok || !bytes.Equal(got, unit2[:40]) {
		t.Fatalf("prefix not patched by the full-unit write: ok=%v %v", ok, got)
	}
	// A write inside the unit but straddling or past the prefix.
	if !c.Update(10, 36, []byte{3, 3, 3, 3, 3, 3, 3, 3}) || !c.Update(10, 144, unit2[:64]) {
		t.Fatal("in-unit update dropped the prefix entry")
	}
	got, _ := c.Get(10, 0, true)
	if want := append(append([]byte(nil), unit2[:36]...), 3, 3, 3, 3); !bytes.Equal(got, want) || c.Used() != 40 {
		t.Fatalf("straddling write: %v (used %d), want %v (used 40)", got, c.Used(), want)
	}
	// A write past the unit is a genuine mismatch, prefix or not — and takes
	// the entry out of the ordered view with it.
	if c.Update(10, 200, unit2[:64]) || c.Contains(10) {
		t.Fatal("write past the unit must drop the entry")
	}
	if _, _, _, ok := c.Floor(0, 100, 0, 0); ok {
		t.Fatal("a dropped entry is still found by key")
	}

	// Whole-unit entries keep their old contract.
	c.Put(20, unit[:64], 0, EpochAlways)
	if got, ok := c.GetUnit(20, 8, 0, true); !ok || len(got) != 8 {
		t.Fatalf("covered read of a whole entry: %d bytes ok=%v, want 8", len(got), ok)
	}
	if c.Update(20, 0, unit2) || c.Contains(20) {
		t.Fatal("whole-unit entry must drop on a larger write")
	}
	c.Put(21, unit[:64], 0, EpochAlways)
	if _, ok := c.GetUnit(21, len(unit), 0, true); ok || c.Contains(21) {
		t.Fatal("whole-unit entry must miss and drop under a larger unit size")
	}
}

// cacheRef is the reference TestCacheOrdered checks the cache against: the
// live entries, searched linearly.
type cacheRef struct {
	addr, key, epoch uint64
	tag              uint32
	n                int
	keyed            bool
	rank             uint8
}

// checkIndexes walks the cache's own structures: every entry of the
// address map is in its tag's list, every keyed one in its tag's ordered
// index under its key and rank, and neither holds anything else.
func checkIndexes(t *testing.T, c *Cache) {
	t.Helper()
	listed, indexed, keyed := 0, 0, 0
	for tag, ts := range c.tags {
		n := 0
		for e := ts.head; e != nil; e = e.tnext {
			if c.entries[e.addr] != e || e.tag != tag {
				t.Fatalf("tag %d lists an entry (addr %d, tag %d) the address map does not hold", tag, e.addr, e.tag)
			}
			n++
		}
		if n != ts.n || n == 0 {
			t.Fatalf("tag %d: %d listed entries, count %d", tag, n, ts.n)
		}
		listed += n
		var walk func(n uint32, h int, lo uint64) uint8
		walk = func(n uint32, h int, lo uint64) uint8 {
			nd := &ts.ord.nodes[n]
			if nd.n == 0 {
				t.Fatalf("tag %d: empty index node", tag)
			}
			var top uint8
			for i := 0; i < int(nd.n); i++ {
				if i > 0 && nd.key[i] <= nd.key[i-1] || i > 0 && nd.key[i] < lo {
					t.Fatalf("tag %d: index keys out of order", tag)
				}
				rank := nd.rank[i]
				if h > 1 {
					bound := lo
					if i > 0 {
						bound = nd.key[i]
					}
					if sub := walk(uint32(nd.ref[i]), h-1, bound); sub != rank {
						t.Fatalf("tag %d: rank summary %d over a subtree whose highest is %d", tag, rank, sub)
					}
				} else {
					e := c.entries[nd.ref[i]]
					if e == nil || !e.keyed || e.tag != tag || e.key != nd.key[i] || e.rank != rank || nd.key[i] < lo {
						t.Fatalf("tag %d: index slot {key %d, addr %d, rank %d} matches no keyed entry", tag, nd.key[i], nd.ref[i], rank)
					}
					indexed++
				}
				top = max(top, rank)
			}
			return top
		}
		if ts.ord.root != 0 {
			walk(ts.ord.root, ts.ord.height, 0)
		}
	}
	for _, e := range c.entries {
		if e.keyed {
			keyed++
		}
	}
	if listed != len(c.entries) || indexed != keyed || len(c.sample) != len(c.entries) {
		t.Fatalf("%d entries by address, %d by tag, %d sampled; %d keyed, %d in the ordered view", len(c.entries), listed, len(c.sample), keyed, indexed)
	}
}

// TestCacheOrdered drives random keyed and unkeyed traffic over two tags —
// admissions (with evictions: the cache is small), replacements that change
// key, rank or kind, write-through, invalidation by address, by tag and
// wholesale, epoch drops by address and by key — and after every step
// checks Floor (plain and rank-filtered), Used and the two indexes against
// a linear reference.
func TestCacheOrdered(t *testing.T) {
	const capacity, addrs, keys = 16 * 2200, 8000, 1 << 16
	c, st := newCache(capacity, PolicyHybrid)
	rng := rand.New(rand.NewSource(18))
	ref := map[uint64]*cacheRef{}
	// sync drops from the reference whatever the cache evicted or dropped.
	sync := func() {
		for a := range ref {
			if !c.Contains(a) {
				delete(ref, a)
			}
		}
	}
	floor := func(tag uint32, k uint64, minRank uint8, epoch uint64) *cacheRef {
		var best *cacheRef
		for _, r := range ref {
			if r.keyed && r.tag == tag && r.key <= k && r.rank >= minRank && (r.epoch == EpochAlways || r.epoch == epoch) &&
				(best == nil || r.key > best.key) {
				best = r
			}
		}
		return best
	}
	epoch, deepest := uint64(2), 0
	for step := 0; step < 14000; step++ {
		addr, tag := uint64(rng.Intn(addrs))+1, uint32(rng.Intn(2))
		switch op := rng.Intn(100); {
		case step == 9000:
			c.Clear()
			ref = map[uint64]*cacheRef{}
		case step%3000 == 0: // the seqlock moves: everything read under the old epoch is stale
			epoch += 2
		case op < 45: // keyed admission
			key, rank := uint64(rng.Intn(keys)), uint8(rng.Intn(4))
			ep := epoch
			if rng.Intn(2) == 0 {
				ep = EpochAlways
			}
			for a, r := range ref { // the key's previous holder goes
				if r.keyed && r.tag == tag && r.key == key && a != addr {
					delete(ref, a)
				}
			}
			c.PutKeyed(addr, make([]byte, 16), 208, tag, ep, key, rank)
			ref[addr] = &cacheRef{addr: addr, key: key, epoch: ep, tag: tag, n: 16, keyed: true, rank: rank}
		case op < 60: // unkeyed admission, possibly over a keyed entry
			n := 8 + rng.Intn(24)
			c.Put(addr, make([]byte, n), tag, EpochAlways)
			ref[addr] = &cacheRef{addr: addr, epoch: EpochAlways, tag: tag, n: n}
		case op < 70:
			if r := ref[addr]; r != nil && !c.Update(addr, 0, make([]byte, 8)) {
				t.Fatalf("step %d: Update of the cached addr %d failed", step, addr)
			}
		case op < 78:
			c.Invalidate(addr)
			delete(ref, addr)
		case op < 80 && step%64 == 0:
			c.InvalidateTag(tag)
			for a, r := range ref {
				if r.tag == tag {
					delete(ref, a)
				}
			}
		case op < 90: // a stale entry met by address drops alone
			_, ok := c.Get(addr, epoch, false)
			if r := ref[addr]; (r != nil && (r.epoch == EpochAlways || r.epoch == epoch)) != ok {
				t.Fatalf("step %d: Get(%d) at epoch %d = %v, reference %+v", step, addr, epoch, ok, r)
			}
		}
		sync()
		// A search, plain or rank-filtered. One that meets a stale entry drops
		// every stale entry of its tag.
		k, minRank := uint64(rng.Intn(keys)), uint8(rng.Intn(4))
		if rng.Intn(2) == 0 {
			minRank = 0
		}
		want := floor(tag, k, minRank, epoch)
		gotAddr, img, visited, ok := c.Floor(tag, k, minRank, epoch)
		sync()
		switch {
		case ok != (want != nil), ok && (gotAddr != want.addr || len(img) != want.n):
			t.Fatalf("step %d: Floor(tag %d, %d, rank>=%d) = addr %d ok=%v, reference %+v", step, tag, k, minRank, gotAddr, ok, want)
		case visited > 12:
			t.Fatalf("step %d: a search over %d entries visited %d index nodes", step, c.Len(), visited)
		}
		var used int64
		for _, r := range ref {
			used += int64(r.n)
		}
		if c.Used() != used || c.Len() != len(ref) || used > capacity {
			t.Fatalf("step %d: Used() = %d over %d entries, reference %d over %d", step, c.Used(), c.Len(), used, len(ref))
		}
		checkIndexes(t, c)
		for _, ts := range c.tags {
			deepest = max(deepest, ts.ord.height)
		}
	}
	if st.CacheEvict.Load() == 0 || deepest < 3 {
		t.Fatalf("the run was meant to evict (%d evictions) and to grow an index three levels deep (%d)", st.CacheEvict.Load(), deepest)
	}
}

// TestCacheSteadyStateAllocs: once warm, an admission that evicts allocates
// nothing — the evicted entry, its image buffer and any freed index node
// are what the admission is built from.
func TestCacheSteadyStateAllocs(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		c, st := newCache(16*4096, PolicyHybrid)
		img := make([]byte, 16)
		next := uint64(1)
		admit := func() {
			if keyed {
				c.PutKeyed(next, img, 208, 1, EpochAlways, next*0x9E3779B97F4A7C15, uint8(next%3))
			} else {
				c.Put(next, img, 1, EpochAlways)
			}
			next++
		}
		for i := 0; i < 3*4096; i++ {
			admit()
		}
		before := st.CacheEvict.Load()
		if n := testing.AllocsPerRun(4096, admit); n != 0 {
			t.Errorf("keyed=%v: %v allocations per admission with eviction, want 0", keyed, n)
		}
		if evicted := st.CacheEvict.Load() - before; evicted < 4096 {
			t.Fatalf("keyed=%v: %d evictions over the measured admissions: the cache was not full", keyed, evicted)
		}
	}
}

// TestCacheChurnMixedSizesAllocates0: a cache that churns units of two sizes
// — a hash table's 8-byte bucket words and 88-byte nodes, through a cache a
// quarter of their footprint — builds an admission from an evicted entry of
// the same size, so what an eviction frees fits what the admission needs
// whichever size the victim was. A single free list allocated on most
// admissions here: its head was the last victim, of either size.
func TestCacheChurnMixedSizesAllocates0(t *testing.T) {
	const units = 4096
	c, st := newCache(units*(8+88)/4, PolicyHybrid)
	word, node := make([]byte, 8), make([]byte, 88)
	rng := rand.New(rand.NewSource(7))
	admit := func() {
		i := uint64(rng.Intn(units))
		if rng.Intn(2) == 0 {
			c.Put(i<<8, word, 1, EpochAlways)
		} else {
			c.Put(i<<8|0x80, node, 1, EpochAlways)
		}
	}
	for i := 0; i < 8*units; i++ {
		admit()
	}
	// testing.AllocsPerRun rounds its average down to a whole number: count.
	before := st.CacheEvict.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 4*units; i++ {
		admit()
	}
	runtime.ReadMemStats(&m1)
	if n := float64(m1.Mallocs-m0.Mallocs) / (4 * units); n > 0.05 {
		t.Errorf("%.3f allocations per admission of mixed sizes, want at most 0.05", n)
	}
	if evicted := st.CacheEvict.Load() - before; evicted < units {
		t.Fatalf("%d evictions over the measured admissions: the cache was not churning", evicted)
	}
}
