package ds

import (
	"encoding/binary"
	"fmt"
	"sort"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// BST is the lock-based binary search tree of the evaluation. Unbalanced
// (as in the paper's benchmarks, keys arrive in random order, giving
// O(log n) expected depth); the writer holds the exclusive lock, readers
// use the retry seqlock; nodes at the top of the tree are cached under
// the adaptive level policy of §8.3.
//
// Node layout: {key u64, left u64, right u64, vlen u32, pad, value[cap]}.
const bstHdr = 32

// The parts of a node an in-place rewrite can dirty (core.Handle.WriteRanges).
var (
	bstLeft  = core.Range{Off: 8, Len: 8}
	bstRight = core.Range{Off: 16, Len: 8}
)

// bstValue is what replacing a value of old bytes by one of new dirties:
// the value bytes out to the longer of the two (the unit is zero past its
// value) and, if the lengths differ, vlen — one range from there, the pad
// between them being narrower than an entry header.
func bstValue(old, new int) core.Range {
	if old == new {
		return core.Range{Off: bstHdr, Len: new}
	}
	return core.Range{Off: 24, Len: bstHdr - 24 + max(old, new)}
}

// BST is a persistent binary search tree.
type BST struct {
	kvBase
	pol *levelPolicy
}

func (t *BST) nodeSize() int { return bstHdr + t.cap }

// CreateBST registers a new tree.
func CreateBST(c *core.Conn, name string, opts Options) (*BST, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeBST, opts.Create)
	if err != nil {
		return nil, err
	}
	return newBST(h, opts, true)
}

// OpenBST attaches to an existing tree.
func OpenBST(c *core.Conn, name string, writer bool, opts Options) (*BST, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	t, err := newBST(h, opts, writer)
	if err != nil {
		return nil, err
	}
	if writer {
		if _, err := ReplayPending(h, t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func newBST(h *core.Handle, opts Options, writer bool) (*BST, error) {
	t := &BST{kvBase: newKVBase(h, opts, writer), pol: newLevelPolicy()}
	if opts.FlatCache {
		t.pol = newFlatPolicy()
	}
	if writer && !opts.LockPerOp {
		if err := h.WriterLock(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *BST) encodeNode(key, left, right uint64, val []byte) []byte {
	buf := make([]byte, t.nodeSize())
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint64(buf[8:], left)
	binary.LittleEndian.PutUint64(buf[16:], right)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(val)))
	copy(buf[bstHdr:], val)
	return buf
}

type bstNode struct {
	key, left, right uint64
	val              []byte
}

func (t *BST) decodeNode(buf []byte) (bstNode, error) {
	var n bstNode
	n.key = binary.LittleEndian.Uint64(buf)
	n.left = binary.LittleEndian.Uint64(buf[8:])
	n.right = binary.LittleEndian.Uint64(buf[16:])
	vlen := binary.LittleEndian.Uint32(buf[24:])
	if int(vlen) > t.cap {
		return n, fmt.Errorf("ds: corrupt bst node (vlen=%d)", vlen)
	}
	n.val = append([]byte(nil), buf[bstHdr:bstHdr+int(vlen)]...)
	return n, nil
}

// readNode reads one node at a depth, consulting the level policy.
func (t *BST) readNode(addr uint64, depth int) (bstNode, error) {
	buf, err := t.h.Read(addr, t.nodeSize(), t.pol.cacheable(depth))
	if err != nil {
		return bstNode{}, err
	}
	return t.decodeNode(buf)
}

// Put inserts or updates key.
func (t *BST) Put(key uint64, val []byte) error {
	if len(val) > t.cap {
		return ErrValueTooLarge
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	if _, err := t.h.OpLog(OpPut, t.kv(key, val)); err != nil {
		return err
	}
	if err := t.put(key, val); err != nil {
		return err
	}
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return t.w.end()
}

func (t *BST) put(key uint64, val []byte) error {
	root, err := t.h.ReadRoot()
	if err != nil {
		return err
	}
	if root == 0 {
		node, err := t.writeNewNode(key, val)
		if err != nil {
			return err
		}
		return t.h.WriteRoot(node)
	}
	cur := root
	depth := 0
	for {
		n, err := t.readNode(cur, depth)
		if err != nil {
			return err
		}
		switch {
		case key == n.key:
			// Value update in place.
			return t.h.WriteRanges(cur, t.encodeNode(n.key, n.left, n.right, val), bstValue(len(n.val), len(val)))
		case key < n.key:
			if n.left == 0 {
				child, err := t.writeNewNode(key, val)
				if err != nil {
					return err
				}
				return t.h.WriteRanges(cur, t.encodeNode(n.key, child, n.right, n.val), bstLeft)
			}
			cur = n.left
		default:
			if n.right == 0 {
				child, err := t.writeNewNode(key, val)
				if err != nil {
					return err
				}
				return t.h.WriteRanges(cur, t.encodeNode(n.key, n.left, child, n.val), bstRight)
			}
			cur = n.right
		}
		depth++
	}
}

// writeNewNode allocates and logs a fresh leaf, a whole unit.
func (t *BST) writeNewNode(key uint64, val []byte) (uint64, error) {
	node, err := t.h.Alloc(t.nodeSize())
	if err != nil {
		return 0, err
	}
	return node, t.h.Write(node, t.encodeNode(key, 0, 0, val))
}

// Get looks up a key under the retry seqlock.
func (t *BST) Get(key uint64) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	var out []byte
	var found bool
	err := readRetry(t.h, func() error {
		out, found = nil, false
		root, err := t.h.ReadRoot()
		if err != nil {
			return err
		}
		cur := root
		depth := 0
		for cur != 0 {
			n, err := t.readNode(cur, depth)
			if err != nil {
				return err
			}
			if key == n.key {
				out, found = n.val, true
				return nil
			}
			if key < n.key {
				cur = n.left
			} else {
				cur = n.right
			}
			depth++
		}
		return nil
	})
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return out, found, err
}

// VectorPut is the vector write of Algorithm 3: the batch is sorted and
// inserted with one shared descent, so reads of common path nodes happen
// once instead of once per key.
func (t *BST) VectorPut(keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ds: vector put length mismatch")
	}
	if len(keys) == 0 {
		return nil
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	// One op log covers the vector (OpPutMany).
	params := encodePutMany(keys, vals)
	if _, err := t.h.OpLog(OpPutMany, params); err != nil {
		return err
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sk := make([]uint64, len(idx))
	sv := make([][]byte, len(idx))
	for i, j := range idx {
		sk[i] = keys[j]
		sv[i] = vals[j]
	}
	root, err := t.h.ReadRoot()
	if err != nil {
		return err
	}
	if root == 0 {
		mid := len(sk) / 2
		node, err := t.writeNewNode(sk[mid], sv[mid])
		if err != nil {
			return err
		}
		if err := t.h.WriteRoot(node); err != nil {
			return err
		}
		rest := append(append([][]byte{}, sv[:mid]...), sv[mid+1:]...)
		restK := append(append([]uint64{}, sk[:mid]...), sk[mid+1:]...)
		for i := range restK {
			if err := t.put(restK[i], rest[i]); err != nil {
				return err
			}
		}
		return t.w.end()
	}
	if err := t.vectorInsert(root, 0, sk, sv); err != nil {
		return err
	}
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return t.w.end()
}

// vectorInsert splits the sorted run around each node's key and recurses,
// the queue-driven descent of Algorithm 3. The node's in-memory image
// accumulates every change (value update, new children) and is written
// once, so the coalesced memory log carries its final state — of the
// parts that changed.
func (t *BST) vectorInsert(node uint64, depth int, keys []uint64, vals [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	n, err := t.readNode(node, depth)
	if err != nil {
		return err
	}
	mid := sort.Search(len(keys), func(i int) bool { return keys[i] >= n.key })
	hi := mid
	var dirty [3]core.Range // left, right, value: ascending, empty if clean
	if hi < len(keys) && keys[hi] == n.key {
		dirty[2] = bstValue(len(n.val), len(vals[hi]))
		n.val = vals[hi] // exact match: update in place
		hi++
	}
	left, lv := keys[:mid], vals[:mid]
	right, rv := keys[hi:], vals[hi:]
	type pendingDescent struct {
		child uint64
		keys  []uint64
		vals  [][]byte
	}
	var descend []pendingDescent // recursion happens after the node write
	if len(left) > 0 {
		if n.left == 0 {
			m := len(left) / 2
			child, err := t.writeNewNode(left[m], lv[m])
			if err != nil {
				return err
			}
			n.left = child
			dirty[0] = bstLeft
			restK := append(append([]uint64{}, left[:m]...), left[m+1:]...)
			restV := append(append([][]byte{}, lv[:m]...), lv[m+1:]...)
			descend = append(descend, pendingDescent{child, restK, restV})
		} else {
			descend = append(descend, pendingDescent{n.left, left, lv})
		}
	}
	if len(right) > 0 {
		if n.right == 0 {
			m := len(right) / 2
			child, err := t.writeNewNode(right[m], rv[m])
			if err != nil {
				return err
			}
			n.right = child
			dirty[1] = bstRight
			restK := append(append([]uint64{}, right[:m]...), right[m+1:]...)
			restV := append(append([][]byte{}, rv[:m]...), rv[m+1:]...)
			descend = append(descend, pendingDescent{child, restK, restV})
		} else {
			descend = append(descend, pendingDescent{n.right, right, rv})
		}
	}
	if dirty != ([3]core.Range{}) {
		if err := t.h.WriteRanges(node, t.encodeNode(n.key, n.left, n.right, n.val), dirty[:]...); err != nil {
			return err
		}
	}
	for _, d := range descend {
		if err := t.vectorInsert(d.child, depth+1, d.keys, d.vals); err != nil {
			return err
		}
	}
	return nil
}

var bstReplay = replayTable[*BST]{
	put:  (*BST).put,
	many: true,
}

// ReplayOp re-executes one pending op-log record.
func (t *BST) ReplayOp(rec logrec.OpRecord) error { return replayOp(t, "bst", rec, &bstReplay) }

// encodePutMany packs a key/value vector into op-log params:
// {count u32, keys..., (vlen u32, val)...}.
func encodePutMany(keys []uint64, vals [][]byte) []byte {
	n := 4 + 8*len(keys)
	for _, v := range vals {
		n += 4 + len(v)
	}
	p := make([]byte, 0, n)
	var b8 [8]byte
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(keys)))
	p = append(p, b4[:]...)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b8[:], k)
		p = append(p, b8[:]...)
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(v)))
		p = append(p, b4[:]...)
		p = append(p, v...)
	}
	return p
}

// decodePutMany unpacks a PutMany parameter block.
func decodePutMany(p []byte) ([]uint64, [][]byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("ds: short putmany params")
	}
	cnt := int(binary.LittleEndian.Uint32(p))
	off := 4
	if len(p) < off+8*cnt {
		return nil, nil, fmt.Errorf("ds: short putmany keys")
	}
	keys := make([]uint64, cnt)
	for i := 0; i < cnt; i++ {
		keys[i] = binary.LittleEndian.Uint64(p[off:])
		off += 8
	}
	vals := make([][]byte, cnt)
	for i := 0; i < cnt; i++ {
		if len(p) < off+4 {
			return nil, nil, fmt.Errorf("ds: short putmany vlen")
		}
		vl := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if len(p) < off+vl {
			return nil, nil, fmt.Errorf("ds: short putmany value")
		}
		vals[i] = append([]byte(nil), p[off:off+vl]...)
		off += vl
	}
	return keys, vals, nil
}
