// Package core implements the AsymNVM front-end framework — the paper's
// primary contribution. A front-end node mounts remote back-ends over the
// RDMA fabric and gives data-structure implementations the underlying API
// of Table 1: rnvm_read/rnvm_write, rnvm_mem_log/rnvm_op_log/rnvm_tx_write,
// rnvm_malloc/rnvm_free, and the writer/reader locks — together with the
// DRAM cache, memory-log batching, the Gather–Apply write path, and the
// crash-recovery client side of §7.2.
package core

import (
	"math/rand"

	"asymnvm/internal/stats"
)

// Policy selects the cache replacement strategy of §4.4.
type Policy int

// Replacement policies. PolicyHybrid is the paper's choice: pick a random
// candidate set, evict the least recently used member — LRU-quality hit
// ratios at random-replacement cost.
const (
	PolicyHybrid Policy = iota
	PolicyLRU
	PolicyRR
)

// HybridSetSize is the random candidate-set size (32 in §4.4).
const HybridSetSize = 32

// cacheFreeMax bounds the recycled entries kept, per image size, for the next
// admissions: a steady admit/evict cycle needs a few, a burst (InvalidateTag)
// goes to the garbage collector.
const cacheFreeMax = 64

type cacheEntry struct {
	addr  uint64
	data  []byte
	unit  int    // size of the unit data images; len(data) < unit = prefix image
	tag   uint32 // owning structure (for per-structure invalidation)
	epoch uint64 // seqlock SN the bytes were read under; ^0 = always valid
	use   uint64 // logical use counter for hybrid sampling
	slot  int    // index in the sampling slice
	// A keyed entry is also in its tag's ordered index under key; rank biases
	// eviction (lowest first). Unkeyed entries have rank 0.
	key   uint64
	keyed bool
	rank  uint8
	// Intrusive links: the recency list (front = most recent) and the owning
	// tag's list.
	prev, next   *cacheEntry
	tprev, tnext *cacheEntry
}

// tagSet is one structure's share of the cache: every entry it owns, and
// the key-ordered view of the keyed ones.
type tagSet struct {
	head *cacheEntry
	n    int
	ord  ordIndex
}

// EpochAlways marks entries that never go stale (immutable nodes of
// multi-version structures, and the single writer's own write-through
// entries).
const EpochAlways = ^uint64(0)

// Cache is the front-end DRAM object cache. Entries are whole structure
// nodes ("pages" whose size is set per structure, §4.4), found by global
// NVM address — or, for a structure whose searches need only the head of a
// node, a prefix image of it: the leading bytes of the unit, accounted at
// their own length, admitted under an order key (PutKeyed) and found by
// address (Get) or as the nearest key at or below a search key (Floor). A
// keyed entry is in both indexes or in neither: every path that removes an
// entry goes through remove. Owned by a single front-end actor; not safe
// for concurrent use.
type Cache struct {
	capacity int64
	used     int64
	policy   Policy
	entries  map[uint64]*cacheEntry
	tags     map[uint32]*tagSet // per-structure index: InvalidateTag, Floor
	lru      cacheEntry         // recency list sentinel: next = most recent, prev = least
	sample   []*cacheEntry
	free     sizedFree[cacheEntry] // recycled entries, image buffers attached
	// filling holds from NewCache or Clear until the first eviction: so far a
	// slot has cost nobody anything, and the write path admits too (Admit).
	filling bool
	tick    uint64
	rng     *rand.Rand
	st      *stats.Stats

	tagScanned int // entries visited by the last InvalidateTag (test hook)
}

// NewCache builds a cache holding at most capacity bytes of node data.
func NewCache(capacity int64, policy Policy, st *stats.Stats) *Cache {
	if st == nil {
		st = &stats.Stats{}
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
		rng:      rand.New(rand.NewSource(0x5eed)),
		st:       st,
	}
	c.Clear()
	return c
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Used reports the cached bytes.
func (c *Cache) Used() int64 { return c.used }

// Get returns the cached image of the unit at addr — whole or prefix, as
// it was admitted — when present and valid at epoch. Entries tagged
// EpochAlways match any epoch. The returned slice is the cache's own copy:
// read-only, and good until the cache is next mutated. A miss is counted
// only when countMiss is set — reads the caller deliberately routes around
// the cache (cold tree levels, §8.3) are direct remote reads, not cache
// misses.
func (c *Cache) Get(addr uint64, epoch uint64, countMiss bool) ([]byte, bool) {
	if e := c.find(addr, epoch); e != nil {
		return c.hit(e), true
	}
	c.miss(countMiss)
	return nil, false
}

// GetUnit is Get for a reader of n-byte units: the first n bytes of an
// image that covers them. A prefix image of an n-byte unit does not, so it
// misses and stays; an entry cached under a different, smaller unit size
// is dropped.
func (c *Cache) GetUnit(addr uint64, n int, epoch uint64, countMiss bool) ([]byte, bool) {
	e := c.find(addr, epoch)
	if e != nil && len(e.data) >= n {
		return c.hit(e)[:n], true
	}
	if e != nil && e.unit != n {
		c.remove(e)
	}
	c.miss(countMiss)
	return nil, false
}

// Floor returns, among tag's keyed entries of rank at least minRank, the
// one with the greatest order key <= k: its address and image. visited is
// the number of index nodes the search read, which is what the caller
// charges for it. An entry found stale at epoch takes every stale entry of
// the tag with it — one epoch move stales them all — and the search runs
// again.
func (c *Cache) Floor(tag uint32, k uint64, minRank uint8, epoch uint64) (addr uint64, data []byte, visited int, ok bool) {
	ts := c.tags[tag]
	if ts == nil {
		return 0, nil, 0, false
	}
	for {
		_, ref, n, found := ts.ord.floor(k, minRank)
		visited += n
		if !found {
			return 0, nil, visited, false
		}
		if e := c.entries[ref]; !e.stale(epoch) {
			return e.addr, c.hit(e), visited, true
		}
		for e := ts.head; e != nil; {
			next := e.tnext
			if e.stale(epoch) {
				c.remove(e)
			}
			e = next
		}
	}
}

// find is the address lookup: a stale entry is dropped so the refill
// replaces it.
func (c *Cache) find(addr uint64, epoch uint64) *cacheEntry {
	e := c.entries[addr]
	if e != nil && e.stale(epoch) {
		c.remove(e)
		return nil
	}
	return e
}

// stale reports whether e was read under another seqlock epoch than epoch.
func (e *cacheEntry) stale(epoch uint64) bool {
	return e.epoch != EpochAlways && e.epoch != epoch
}

func (c *Cache) hit(e *cacheEntry) []byte {
	c.touch(e)
	c.st.CacheHit.Add(1)
	return e.data
}

func (c *Cache) miss(count bool) {
	if count {
		c.st.CacheMiss.Add(1)
	}
}

// Contains reports presence without counting a hit or miss.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.entries[addr]
	return ok
}

// Put inserts (or replaces) the bytes of the whole unit at addr.
func (c *Cache) Put(addr uint64, data []byte, tag uint32, epoch uint64) {
	c.put(addr, data, len(data), tag, epoch, false, 0, 0)
}

// PutKeyed inserts (or replaces) a prefix image — the leading len(data)
// bytes of the unit-byte unit at addr, which alone count against the
// capacity — that the structure also searches by order key (Floor). rank
// biases eviction: of its candidates the hybrid policy takes the lowest
// rank first, the least recently used among equals, and an unkeyed entry
// ranks 0. Order keys are unique within a tag: an entry at another address
// that holds key is dropped.
func (c *Cache) PutKeyed(addr uint64, data []byte, unit int, tag uint32, epoch uint64, key uint64, rank uint8) {
	c.put(addr, data, unit, tag, epoch, true, key, rank)
}

func (c *Cache) put(addr uint64, data []byte, unit int, tag uint32, epoch uint64, keyed bool, key uint64, rank uint8) {
	if int64(len(data)) > c.capacity {
		return // larger than the whole cache: bypass
	}
	if e := c.entries[addr]; e != nil {
		if e.tag != tag || e.keyed != keyed || e.key != key || e.rank != rank {
			c.unlink(e)
			e.tag, e.keyed, e.key, e.rank = tag, keyed, key, rank
			c.link(e)
		}
		c.used += int64(len(data)) - int64(len(e.data))
		if cap(e.data) > 2*len(data) {
			e.data = nil // a unit's head over the unit it was written as: let the buffer go
		}
		e.data = append(e.data[:0], data...)
		e.unit, e.epoch = unit, epoch
		c.touch(e)
	} else {
		e = c.newEntry(data)
		e.addr, e.unit, e.tag, e.epoch = addr, unit, tag, epoch
		e.key, e.keyed, e.rank = key, keyed, rank
		c.link(e)
		c.entries[addr] = e
		e.slot = len(c.sample)
		c.sample = append(c.sample, e)
		e.prev, e.next = e, e // detached; touch links it in
		c.used += int64(len(data))
		c.touch(e)
	}
	for c.used > c.capacity {
		c.evictOne()
	}
}

// link enters e into its tag's set and, keyed, into the ordered view —
// from which an entry at another address holding the same key is dropped
// first.
func (c *Cache) link(e *cacheEntry) {
	if ts := c.tags[e.tag]; ts != nil && e.keyed {
		if key, ref, _, ok := ts.ord.floor(e.key, 0); ok && key == e.key {
			c.remove(c.entries[ref])
		}
	}
	ts := c.tags[e.tag]
	if ts == nil {
		ts = &tagSet{}
		c.tags[e.tag] = ts
	}
	if e.keyed {
		ts.ord.insert(e.key, e.addr, e.rank)
	}
	e.tprev, e.tnext = nil, ts.head
	if ts.head != nil {
		ts.head.tprev = e
	}
	ts.head = e
	ts.n++
}

// unlink takes e out of its tag's set and the ordered view.
func (c *Cache) unlink(e *cacheEntry) {
	ts := c.tags[e.tag]
	if e.keyed {
		ts.ord.remove(e.key)
	}
	if e.tprev != nil {
		e.tprev.tnext = e.tnext
	} else {
		ts.head = e.tnext
	}
	if e.tnext != nil {
		e.tnext.tprev = e.tprev
	}
	if ts.n--; ts.n == 0 {
		delete(c.tags, e.tag)
	}
}

// newEntry takes an entry off the free list of data's size, image buffer
// attached, or allocates one, and copies data into it.
func (c *Cache) newEntry(data []byte) *cacheEntry {
	e := c.free.take(len(data))
	if e == nil {
		return &cacheEntry{data: append([]byte(nil), data...)}
	}
	*e = cacheEntry{data: append(e.data[:0], data...)}
	return e
}

// Admit is the write path's admission (Handle.write): the whole unit a writer
// has just written and the cache does not hold, valid at every epoch as the
// writer's own bytes are. It is taken only while the cache is still filling
// and only into free space; from the first eviction on only reads admit —
// under pressure nothing says a written unit deserves a slot a read earned.
// What the cache holds then follows the operation stream alone, not when the
// overlay, which answered until then, let go.
func (c *Cache) Admit(addr uint64, data []byte, tag uint32) {
	if c.filling && c.used+int64(len(data)) <= c.capacity {
		c.put(addr, data, len(data), tag, EpochAlways, false, 0, 0)
	}
}

// Update applies an in-place sub-range modification to a cached entry if
// present (the write-through of Figure 4's step 4). A prefix image takes
// the part of the write that falls inside it. It reports whether the entry
// existed.
func (c *Cache) Update(addr uint64, off int, data []byte) bool {
	e, ok := c.entries[addr]
	if !ok {
		return false
	}
	if off < 0 || off+len(data) > e.unit {
		// Partial overlap with a differently-sized entry: drop it.
		c.remove(e)
		return false
	}
	if off < len(e.data) {
		copy(e.data[off:], data)
	}
	return true
}

// Invalidate drops the entry for addr if present.
func (c *Cache) Invalidate(addr uint64) {
	if e, ok := c.entries[addr]; ok {
		c.remove(e)
	}
}

// InvalidateTag drops every entry owned by one structure. The per-tag
// index makes this O(entries of that tag) instead of a full-cache scan —
// dropping one structure must not stall a front-end caching millions of
// nodes from its neighbours.
func (c *Cache) InvalidateTag(tag uint32) {
	ts := c.tags[tag]
	c.tagScanned = 0
	if ts == nil {
		return
	}
	c.tagScanned = ts.n
	for ts.head != nil {
		c.remove(ts.head)
	}
}

// Clear empties the cache (used when a back-end failure aborts the
// in-flight transaction, §4.3).
func (c *Cache) Clear() {
	c.entries = make(map[uint64]*cacheEntry)
	c.tags = make(map[uint32]*tagSet)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.sample = c.sample[:0]
	c.free = sizedFree[cacheEntry]{limit: cacheFreeMax}
	c.used = 0
	c.filling = true
}

// touch makes e the most recently used entry.
func (c *Cache) touch(e *cacheEntry) {
	c.tick++
	e.use = c.tick
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// remove takes e out of both indexes, the recency list and the sampling
// slice, and keeps it for the next admission.
func (c *Cache) remove(e *cacheEntry) {
	delete(c.entries, e.addr)
	c.unlink(e)
	e.prev.next, e.next.prev = e.next, e.prev
	last := len(c.sample) - 1
	c.sample[e.slot] = c.sample[last]
	c.sample[e.slot].slot = e.slot
	c.sample[last] = nil
	c.sample = c.sample[:last]
	c.used -= int64(len(e.data))
	c.free.give(len(e.data), e)
}

// evictOne removes one victim according to the policy.
func (c *Cache) evictOne() {
	c.filling = false
	if len(c.sample) == 0 {
		return
	}
	var victim *cacheEntry
	switch c.policy {
	case PolicyLRU:
		victim = c.lru.prev
	case PolicyRR:
		victim = c.sample[c.rng.Intn(len(c.sample))]
	default: // PolicyHybrid: random set, then lowest rank, then least recently used
		k := HybridSetSize
		if k > len(c.sample) {
			k = len(c.sample)
		}
		for i := 0; i < k; i++ {
			cand := c.sample[c.rng.Intn(len(c.sample))]
			if victim == nil || cand.rank < victim.rank || cand.rank == victim.rank && cand.use < victim.use {
				victim = cand
			}
		}
	}
	c.remove(victim)
	c.st.CacheEvict.Add(1)
}
