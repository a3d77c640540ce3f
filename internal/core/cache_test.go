package core

import (
	"bytes"
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
// bytes patched, and is served as a short hit — while a whole-unit entry
// still drops on a write, or a read, of a size it does not cover.
func TestCachePrefixImage(t *testing.T) {
	c, _ := newCache(1<<20, PolicyHybrid)
	unit := bytes.Repeat([]byte{1}, 208)
	c.PutPrefix(10, unit[:40], len(unit), 0, EpochAlways)
	if c.Used() != 40 {
		t.Fatalf("Used() = %d, want the prefix length 40", c.Used())
	}
	got, ok := c.GetUnit(10, len(unit), 0, true)
	if !ok || len(got) != 40 {
		t.Fatalf("GetUnit of a prefix image: %d bytes ok=%v, want a 40-byte short hit", len(got), ok)
	}

	// Write-through of the full unit: the prefix takes its part.
	unit2 := bytes.Repeat([]byte{2}, 208)
	if !c.Update(10, 0, unit2) {
		t.Fatal("full-unit update dropped the prefix entry")
	}
	if got, ok := c.GetUnit(10, len(unit), 0, true); !ok || !bytes.Equal(got, unit2[:40]) {
		t.Fatalf("prefix not patched by the full-unit write: ok=%v %v", ok, got)
	}
	// A write inside the unit but straddling or past the prefix.
	if !c.Update(10, 36, []byte{3, 3, 3, 3, 3, 3, 3, 3}) || !c.Update(10, 144, unit2[:64]) {
		t.Fatal("in-unit update dropped the prefix entry")
	}
	got, _ = c.GetUnit(10, len(unit), 0, true)
	if want := append(append([]byte(nil), unit2[:36]...), 3, 3, 3, 3); !bytes.Equal(got, want) || c.Used() != 40 {
		t.Fatalf("straddling write: %v (used %d), want %v (used 40)", got, c.Used(), want)
	}
	// A write past the unit is a genuine mismatch, prefix or not.
	if c.Update(10, 200, unit2[:64]) || c.Contains(10) {
		t.Fatal("write past the unit must drop the entry")
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
