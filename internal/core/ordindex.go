package core

// ordIndex is the key-ordered view of one structure's keyed cache entries:
// a B+-tree from order key to NVM address whose every slot also carries a
// retention rank, so one search answers "the nearest entry at or below k
// whose rank is at least r" (r = 0: the plain floor). Nodes are fixed
// fan-out, 496 bytes, pointer-free and live in one slab indexed by uint32,
// so the garbage collector never scans them and a freed node is reused by
// the next split. Nodes are freed when empty and never merged — under the
// random insert/evict traffic of a cache that keeps occupancy as good as
// merging does at a fraction of the code.
//
// An inner slot holds a child's node index, the highest rank under it, and
// (slots >= 1) a lower bound of its keys that is above every key to its
// left; slot 0's key is never compared.
type ordIndex struct {
	nodes  []ordNode
	free   uint32 // head of the freed-node list (threaded through ref[0]); 0 = none
	root   uint32 // 0 = empty
	height int    // levels, leaves included
}

const (
	ordFan = 29
	// ordMaxHeight bounds the delete path: 29 entries per leaf and at least
	// two children per inner node put 2^32 nodes far below it.
	ordMaxHeight = 32
)

type ordNode struct {
	n    uint8
	rank [ordFan]uint8
	key  [ordFan]uint64
	ref  [ordFan]uint64
}

// route picks the child of an inner node that covers k.
func (nd *ordNode) route(k uint64) int {
	i := int(nd.n) - 1
	for i > 0 && nd.key[i] > k {
		i--
	}
	return i
}

// upper is the number of a leaf's keys that are <= k.
func (nd *ordNode) upper(k uint64) int {
	lo, hi := 0, int(nd.n)
	for lo < hi {
		if m := (lo + hi) / 2; nd.key[m] <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (nd *ordNode) insertAt(i int, key, ref uint64, rank uint8) {
	n := int(nd.n)
	copy(nd.key[i+1:n+1], nd.key[i:n])
	copy(nd.ref[i+1:n+1], nd.ref[i:n])
	copy(nd.rank[i+1:n+1], nd.rank[i:n])
	nd.key[i], nd.ref[i], nd.rank[i] = key, ref, rank
	nd.n++
}

func (nd *ordNode) removeAt(i int) {
	n := int(nd.n)
	copy(nd.key[i:n-1], nd.key[i+1:n])
	copy(nd.ref[i:n-1], nd.ref[i+1:n])
	copy(nd.rank[i:n-1], nd.rank[i+1:n])
	nd.n--
}

func (nd *ordNode) maxRank() uint8 {
	var m uint8
	for _, r := range nd.rank[:nd.n] {
		if r > m {
			m = r
		}
	}
	return m
}

// last is the rightmost slot whose rank is at least minRank, -1 for none.
func (nd *ordNode) last(minRank uint8) int {
	i := int(nd.n) - 1
	for i >= 0 && nd.rank[i] < minRank {
		i--
	}
	return i
}

func (t *ordIndex) alloc() uint32 {
	if i := t.free; i != 0 {
		t.free = uint32(t.nodes[i].ref[0])
		t.nodes[i] = ordNode{}
		return i
	}
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, ordNode{}) // index 0 is "none"
	}
	t.nodes = append(t.nodes, ordNode{})
	return uint32(len(t.nodes) - 1)
}

func (t *ordIndex) release(i uint32) {
	t.nodes[i].ref[0] = uint64(t.free)
	t.free = i
}

// split moves the upper half of the full child at slot i of parent p into a
// new right sibling.
func (t *ordIndex) split(p uint32, i int) {
	right := t.alloc() // may move the slab: take node pointers after it
	parent, left := &t.nodes[p], &t.nodes[uint32(t.nodes[p].ref[i])]
	r := &t.nodes[right]
	const half = ordFan / 2
	r.n = uint8(copy(r.key[:], left.key[half:left.n]))
	copy(r.ref[:], left.ref[half:left.n])
	copy(r.rank[:], left.rank[half:left.n])
	left.n = half
	parent.rank[i] = left.maxRank()
	parent.insertAt(i+1, r.key[0], uint64(right), r.maxRank())
}

// insert adds key, which must not be present. Full nodes are split on the
// way down, so a split never propagates upwards.
func (t *ordIndex) insert(key, ref uint64, rank uint8) {
	if t.root == 0 {
		t.root, t.height = t.alloc(), 1
	}
	if t.nodes[t.root].n == ordFan {
		top := t.alloc()
		t.nodes[top].n = 1
		t.nodes[top].ref[0] = uint64(t.root)
		t.root = top
		t.height++
		t.split(top, 0)
	}
	n := t.root
	for h := t.height; h > 1; h-- {
		i := t.nodes[n].route(key)
		if t.nodes[uint32(t.nodes[n].ref[i])].n == ordFan {
			t.split(n, i)
			i = t.nodes[n].route(key)
		}
		nd := &t.nodes[n]
		if rank > nd.rank[i] {
			nd.rank[i] = rank
		}
		n = uint32(nd.ref[i])
	}
	leaf := &t.nodes[n]
	leaf.insertAt(leaf.upper(key), key, ref, rank)
}

// remove deletes key if present and reports whether it was.
func (t *ordIndex) remove(key uint64) bool {
	if t.root == 0 {
		return false
	}
	var path [ordMaxHeight]struct {
		node uint32
		slot int
	}
	n, depth := t.root, 0
	for h := t.height; h > 1; h-- {
		i := t.nodes[n].route(key)
		path[depth].node, path[depth].slot = n, i
		depth++
		n = uint32(t.nodes[n].ref[i])
	}
	leaf := &t.nodes[n]
	i := leaf.upper(key) - 1
	if i < 0 || leaf.key[i] != key {
		return false
	}
	leaf.removeAt(i)
	// Back up the path: an emptied node leaves its parent, and every
	// ancestor's rank summary is made exact again.
	for depth > 0 {
		depth--
		parent, slot := &t.nodes[path[depth].node], path[depth].slot
		if child := &t.nodes[n]; child.n == 0 {
			t.release(n)
			parent.removeAt(slot)
		} else {
			parent.rank[slot] = child.maxRank()
		}
		n = path[depth].node
	}
	for t.height > 1 && t.nodes[t.root].n == 1 {
		old := t.root
		t.root = uint32(t.nodes[old].ref[0])
		t.release(old)
		t.height--
	}
	if t.nodes[t.root].n == 0 {
		t.release(t.root)
		t.root, t.height = 0, 0
	}
	return true
}

// floor finds the entry with the greatest key <= k among those of rank at
// least minRank, and reports how many nodes the search visited. It follows
// k's route, remembering the nearest subtree to its left that holds a
// qualifying entry; if the route's leaf has none at or below k, the answer
// is that subtree's rightmost one.
func (t *ordIndex) floor(k uint64, minRank uint8) (key, ref uint64, visited int, ok bool) {
	if t.root == 0 {
		return 0, 0, 0, false
	}
	var alt uint32
	altH := 0
	n := t.root
	for h := t.height; h > 1 && n != 0; h-- {
		nd := &t.nodes[n]
		visited++
		i := nd.route(k)
		for j := i - 1; j >= 0; j-- {
			if nd.rank[j] >= minRank {
				alt, altH = uint32(nd.ref[j]), h-1
				break
			}
		}
		n = 0
		if nd.rank[i] >= minRank {
			n = uint32(nd.ref[i])
		}
	}
	if n != 0 {
		leaf := &t.nodes[n]
		visited++
		for i := leaf.upper(k) - 1; i >= 0; i-- {
			if leaf.rank[i] >= minRank {
				return leaf.key[i], leaf.ref[i], visited, true
			}
		}
	}
	for n = alt; n != 0; altH-- {
		nd := &t.nodes[n]
		visited++
		i := nd.last(minRank)
		if i < 0 {
			break // summaries are exact, so this is unreachable
		}
		if altH == 1 {
			return nd.key[i], nd.ref[i], visited, true
		}
		n = uint32(nd.ref[i])
	}
	return 0, 0, visited, false
}
