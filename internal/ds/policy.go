package ds

import (
	"asymnvm/internal/core"
	"asymnvm/internal/stats"
)

// levelPolicy implements the tree-caching heuristic of §8.3: nodes at
// depth <= N are cached (they are hot by construction — the root is on
// every path), deeper nodes are read directly. N adapts to the observed
// miss ratio α: α > 50% shrinks N, α < 25% grows it. Compared to plain
// LRU this "hints" the cache toward the hot upper levels.
//
// The skip list uses the same hint with its towers as the levels: a node
// of height h is rated at depth SkipListMaxLevel-h, so N admits towers of
// height >= SkipListMaxLevel-N. It decides admission after the read, so
// its reads never count a miss; its N follows the cache's fill state
// instead (observeFill).
type levelPolicy struct {
	n         int
	flat      bool  // never adapt: cache everything (ablation baseline)
	ops       int64 // operations since the last fill-state sample
	lastHit   int64
	lastMiss  int64
	lastEvict int64
	lastUsed  int64
}

const (
	levelPolicyStart  = 8
	levelPolicyWindow = 1024
	levelPolicyMax    = 40
	// towerPolicyStart is the tower height the skip list admits from at
	// first.
	towerPolicyStart = 3
)

func newLevelPolicy() *levelPolicy { return &levelPolicy{n: levelPolicyStart} }

// newTowerPolicy is the skip list's hint.
func newTowerPolicy() *levelPolicy { return &levelPolicy{n: SkipListMaxLevel - towerPolicyStart} }

// newFlatPolicy caches every level (the native-LRU ablation baseline).
func newFlatPolicy() *levelPolicy { return &levelPolicy{n: 1 << 20, flat: true} }

// cacheable reports whether a node at the given depth should be cached.
func (p *levelPolicy) cacheable(depth int) bool { return depth <= p.n }

// observe samples the cache counters once per operation and adapts N
// when a window's worth of accesses has accumulated.
func (p *levelPolicy) observe(st *stats.Stats) {
	if p.flat {
		return
	}
	hit, miss := st.CacheHit.Load(), st.CacheMiss.Load()
	dh, dm := hit-p.lastHit, miss-p.lastMiss
	if dh+dm < levelPolicyWindow {
		return
	}
	p.lastHit, p.lastMiss = hit, miss
	alpha := float64(dm) / float64(dh+dm)
	switch {
	case alpha > 0.50 && p.n > 1:
		p.n--
	case alpha < 0.25 && p.n < levelPolicyMax:
		p.n++
	}
}

// observeFill is observe for the skip list, called once per operation; it
// samples the cache's fill state every levelPolicyWindow operations. A
// search touches about two nodes per level, so more than one eviction per
// operation means the lowest admitted height misses more often than it
// hits and is churning the towers above it: stop admitting it. Room left
// that the admitted heights are not about to fill (no eviction, and at
// the window's growth the free bytes last more than eight windows) goes
// to the next height down. Overshooting down is cheap and corrects
// itself — a level that only partly fits still hits — while unused bytes
// are round trips, so the rule leans towards admitting. N is a function
// of the operation count and the cache counters alone.
func (p *levelPolicy) observeFill(fe *core.Frontend) {
	cache := fe.Cache()
	if p.flat || cache == nil {
		return
	}
	if p.ops++; p.ops < levelPolicyWindow {
		return
	}
	p.ops = 0
	evict, used := fe.Stats().CacheEvict.Load(), cache.Used()
	evicted, grown := evict-p.lastEvict, used-p.lastUsed
	p.lastEvict, p.lastUsed = evict, used
	switch {
	case evicted > levelPolicyWindow && p.n > 0:
		p.n--
	case evicted == 0 && 8*grown < cache.Capacity()-used && p.n < SkipListMaxLevel-1:
		p.n++
	}
}

// Level returns the current threshold (exposed for the Figure 7 ablation).
func (p *levelPolicy) Level() int { return p.n }
