// Package core implements the AsymNVM front-end framework — the paper's
// primary contribution. A front-end node mounts remote back-ends over the
// RDMA fabric and gives data-structure implementations the underlying API
// of Table 1: rnvm_read/rnvm_write, rnvm_mem_log/rnvm_op_log/rnvm_tx_write,
// rnvm_malloc/rnvm_free, and the writer/reader locks — together with the
// DRAM cache, memory-log batching, the Gather–Apply write path, and the
// crash-recovery client side of §7.2.
package core

import (
	"container/list"
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

type cacheEntry struct {
	addr  uint64
	data  []byte
	unit  int    // size of the unit data images; len(data) < unit = prefix image
	tag   uint32 // owning structure (for per-structure invalidation)
	epoch uint64 // seqlock SN the bytes were read under; ^0 = always valid
	use   uint64 // logical use counter for hybrid sampling
	elem  *list.Element
	slot  int // index in the sampling slice
}

// EpochAlways marks entries that never go stale (immutable nodes of
// multi-version structures, and the single writer's own write-through
// entries).
const EpochAlways = ^uint64(0)

// Cache is the front-end DRAM object cache. Entries are whole structure
// nodes ("pages" whose size is set per structure, §4.4), keyed by global
// NVM address — or, for a structure whose traversals need only the head of
// a node, a prefix image of it (PutPrefix): the leading bytes of the unit,
// accounted at their own length. Owned by a single front-end actor; not
// safe for concurrent use.
type Cache struct {
	capacity int64
	used     int64
	policy   Policy
	entries  map[uint64]*cacheEntry
	byTag    map[uint32]map[uint64]*cacheEntry // per-structure index for InvalidateTag
	lru      *list.List                        // front = most recent
	sample   []*cacheEntry
	tick     uint64
	rng      *rand.Rand
	st       *stats.Stats

	tagScanned int // entries visited by the last InvalidateTag (test hook)
}

// NewCache builds a cache holding at most capacity bytes of node data.
func NewCache(capacity int64, policy Policy, st *stats.Stats) *Cache {
	if st == nil {
		st = &stats.Stats{}
	}
	return &Cache{
		capacity: capacity,
		policy:   policy,
		entries:  make(map[uint64]*cacheEntry),
		byTag:    make(map[uint32]map[uint64]*cacheEntry),
		lru:      list.New(),
		rng:      rand.New(rand.NewSource(0x5eed)),
		st:       st,
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Capacity reports the byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used reports the cached bytes.
func (c *Cache) Used() int64 { return c.used }

// Get returns the cached bytes for addr when present and valid at epoch.
// Entries tagged EpochAlways match any epoch. The returned slice is the
// cache's own copy; callers must not retain it across mutations. A miss
// is counted only when countMiss is set — reads the caller deliberately
// routes around the cache (cold tree levels, §8.3) are direct remote
// reads, not cache misses.
func (c *Cache) Get(addr uint64, epoch uint64, countMiss bool) ([]byte, bool) {
	e := c.lookup(addr, epoch, countMiss)
	if e == nil {
		return nil, false
	}
	return e.data, true
}

// GetUnit is Get for a reader of n-byte units: the first n bytes of an
// image that covers them, or the whole of a prefix image of an n-byte unit
// (a short hit: the caller gets fewer than n bytes). An entry cached under
// a different, smaller unit size is dropped and misses.
func (c *Cache) GetUnit(addr uint64, n int, epoch uint64, countMiss bool) ([]byte, bool) {
	e := c.lookup(addr, epoch, countMiss)
	switch {
	case e == nil:
		return nil, false
	case len(e.data) >= n:
		return e.data[:n], true
	case e.unit == n:
		return e.data, true
	}
	c.remove(e)
	return nil, false
}

func (c *Cache) lookup(addr uint64, epoch uint64, countMiss bool) *cacheEntry {
	e, ok := c.entries[addr]
	if ok && e.epoch != EpochAlways && e.epoch != epoch {
		// Stale under the seqlock: drop so the refill replaces it.
		c.remove(e)
		ok = false
	}
	if !ok {
		if countMiss {
			c.st.CacheMiss.Add(1)
		}
		return nil
	}
	c.touch(e)
	c.st.CacheHit.Add(1)
	return e
}

// Contains reports presence without counting a hit or miss.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.entries[addr]
	return ok
}

// Put inserts (or replaces) the bytes of the whole unit at addr.
func (c *Cache) Put(addr uint64, data []byte, tag uint32, epoch uint64) {
	c.PutPrefix(addr, data, len(data), tag, epoch)
}

// PutPrefix inserts (or replaces) an image holding the leading len(data)
// bytes of the unit-byte unit at addr. Only those bytes count against the
// capacity.
func (c *Cache) PutPrefix(addr uint64, data []byte, unit int, tag uint32, epoch uint64) {
	if int64(len(data)) > c.capacity {
		return // larger than the whole cache: bypass
	}
	if e, ok := c.entries[addr]; ok {
		c.used += int64(len(data)) - int64(len(e.data))
		e.data = append(e.data[:0], data...)
		e.unit = unit
		if e.tag != tag {
			c.untag(e)
			e.tag = tag
			c.retag(e)
		}
		e.epoch = epoch
		c.touch(e)
	} else {
		e := &cacheEntry{addr: addr, data: append([]byte(nil), data...), unit: unit, tag: tag, epoch: epoch}
		e.elem = c.lru.PushFront(e)
		e.slot = len(c.sample)
		c.sample = append(c.sample, e)
		c.entries[addr] = e
		c.retag(e)
		c.used += int64(len(data))
		c.touch(e)
	}
	for c.used > c.capacity {
		c.evictOne()
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
	set := c.byTag[tag]
	c.tagScanned = len(set)
	for _, e := range set {
		c.remove(e)
	}
}

// Clear empties the cache (used when a back-end failure aborts the
// in-flight transaction, §4.3).
func (c *Cache) Clear() {
	c.entries = make(map[uint64]*cacheEntry)
	c.byTag = make(map[uint32]map[uint64]*cacheEntry)
	c.lru.Init()
	c.sample = c.sample[:0]
	c.used = 0
}

func (c *Cache) touch(e *cacheEntry) {
	c.tick++
	e.use = c.tick
	c.lru.MoveToFront(e.elem)
}

func (c *Cache) retag(e *cacheEntry) {
	set := c.byTag[e.tag]
	if set == nil {
		set = make(map[uint64]*cacheEntry)
		c.byTag[e.tag] = set
	}
	set[e.addr] = e
}

func (c *Cache) untag(e *cacheEntry) {
	set := c.byTag[e.tag]
	delete(set, e.addr)
	if len(set) == 0 {
		delete(c.byTag, e.tag)
	}
}

func (c *Cache) remove(e *cacheEntry) {
	delete(c.entries, e.addr)
	c.untag(e)
	c.lru.Remove(e.elem)
	last := len(c.sample) - 1
	c.sample[e.slot] = c.sample[last]
	c.sample[e.slot].slot = e.slot
	c.sample = c.sample[:last]
	c.used -= int64(len(e.data))
}

// evictOne removes one victim according to the policy.
func (c *Cache) evictOne() {
	if len(c.sample) == 0 {
		return
	}
	var victim *cacheEntry
	switch c.policy {
	case PolicyLRU:
		victim = c.lru.Back().Value.(*cacheEntry)
	case PolicyRR:
		victim = c.sample[c.rng.Intn(len(c.sample))]
	default: // PolicyHybrid: random set, then least-recently-used member
		k := HybridSetSize
		if k > len(c.sample) {
			k = len(c.sample)
		}
		for i := 0; i < k; i++ {
			cand := c.sample[c.rng.Intn(len(c.sample))]
			if victim == nil || cand.use < victim.use {
				victim = cand
			}
		}
	}
	c.remove(victim)
	c.st.CacheEvict.Add(1)
}
