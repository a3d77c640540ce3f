package ds

import "asymnvm/internal/stats"

// levelPolicy implements the tree-caching heuristic of §8.3: nodes at
// depth <= N are cached (they are hot by construction — the root is on
// every path), deeper nodes are read directly. N adapts to the observed
// miss ratio α: α > 50% shrinks N, α < 25% grows it. Compared to plain
// LRU this "hints" the cache toward the hot upper levels.
type levelPolicy struct {
	n        int
	flat     bool // never adapt: cache everything (ablation baseline)
	lastHit  int64
	lastMiss int64
}

const (
	levelPolicyStart  = 8
	levelPolicyWindow = 1024
	levelPolicyMax    = 40
)

func newLevelPolicy() *levelPolicy { return &levelPolicy{n: levelPolicyStart} }

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
