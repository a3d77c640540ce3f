package ds

import (
	"encoding/binary"
	"fmt"
	"sort"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// BPTree is the lock-based B+Tree of the evaluation, with fan-out 32 as
// in §9.1. Leaves hold pointers to fixed-capacity value blobs (each blob
// is its own write unit, logged with the pointer-form memory entry when
// batching is on); internal nodes hold child pointers. All nodes share
// one fixed layout so any node is a single read unit:
//
//	{n u16, isLeaf u8, pad5, next u64, keys[31]u64, ptrs[32]u64}
//
// The upper levels are cached under the adaptive level policy of §8.3 —
// the root is on every path; leaves are cold.
const (
	bptMaxKeys = 31
	bptMaxKids = 32
	bptHdr     = 16
	bptKeysOff = 16
	bptPtrsOff = bptKeysOff + 8*bptMaxKeys
	bptNode    = bptPtrsOff + 8*bptMaxKids // 520 bytes
)

// BPTree is a persistent B+Tree. Like its handle, a BPTree belongs to one
// actor: every operation walks and patches node images in buffers the tree
// owns, so nothing on a put's path is allocated.
type BPTree struct {
	kvBase
	pol *levelPolicy
	// path is the last descent, root first. A level's buffer is where a miss
	// at that depth is fetched and where a put keeps its own copy of a hit;
	// it is good until the tree's next read at that depth.
	path [bptMaxDepth]bptLevel
	node bptNodeT // the node a put is changing, decoded from its level's buffer
	sib  bptNodeT // the node a split or a root split builds
	// Scratch. Handle.Write copies what it is given, so one buffer of each
	// serves every operation: unit is the image of a node built in memory and
	// blob the unit a Get fetches a value in. The blob image a put writes is
	// built in the parameter buffer (blobParams), where Put logs it from. scan
	// is what Scan reads a leaf's blobs into, each copied out (blobValue)
	// before the next leaf's.
	unit, blob []byte
	scan       core.MultiBuf
}

// bptMaxDepth bounds a descent: every node but the root keeps at least 15
// keys, so no tree of 64-bit keys is deeper — only a corrupt one, whose
// child pointers loop.
const bptMaxDepth = 16

// bptLevel is one step of a descent: the node's address, its image — the
// level's buffer or, on a read-only descent, a view of the cache's or the
// overlay's bytes (core.Handle.ReadInto) — and the child slot taken.
type bptLevel struct {
	addr uint64
	buf  []byte
	img  []byte
	pos  int
}

// Accessors over a node image, so a descent searches the unit where it lies.
func bptN(img []byte) int             { return int(binary.LittleEndian.Uint16(img)) }
func bptIsLeaf(img []byte) bool       { return img[2] == 1 }
func bptNext(img []byte) uint64       { return binary.LittleEndian.Uint64(img[8:]) }
func bptKey(img []byte, i int) uint64 { return binary.LittleEndian.Uint64(img[bptKeysOff+8*i:]) }
func bptPtr(img []byte, i int) uint64 { return binary.LittleEndian.Uint64(img[bptPtrsOff+8*i:]) }
func bptHas(img []byte, pos int, key uint64) bool {
	return pos < bptN(img) && bptKey(img, pos) == key
}

// bptSearch returns the first index of the image's keys with keys[i] >= key.
func bptSearch(img []byte, key uint64) int {
	lo, hi := 0, bptN(img)
	for lo < hi {
		mid := (lo + hi) / 2
		if bptKey(img, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bptNodeT is the in-memory image; the arrays carry one overflow slot so
// an insert can exceed the wire capacity momentarily before splitting. img
// is the unit the node was decoded from (nil for a node built in memory):
// an in-place rewrite patches it, so the slots it leaves alone — the stale
// ones past n included — stay byte for byte what NVM holds.
type bptNodeT struct {
	n      int
	isLeaf bool
	next   uint64
	keys   [bptMaxKeys + 1]uint64
	ptrs   [bptMaxKids + 1]uint64
	img    []byte
}

// encodeInto writes the header and the key slots [keys[0], keys[1]) and
// pointer slots [ptrs[0], ptrs[1]) of n over the unit image buf.
func (n *bptNodeT) encodeInto(buf []byte, keys, ptrs [2]int) {
	binary.LittleEndian.PutUint16(buf, uint16(n.n))
	buf[2] = 0
	if n.isLeaf {
		buf[2] = 1
	}
	binary.LittleEndian.PutUint64(buf[8:], n.next)
	for i := keys[0]; i < keys[1]; i++ {
		binary.LittleEndian.PutUint64(buf[bptKeysOff+8*i:], n.keys[i])
	}
	for i := ptrs[0]; i < ptrs[1]; i++ {
		binary.LittleEndian.PutUint64(buf[bptPtrsOff+8*i:], n.ptrs[i])
	}
}

// encode writes the whole of n over the unit image buf.
func (n *bptNodeT) encode(buf []byte) []byte {
	n.encodeInto(buf, [2]int{0, bptMaxKeys}, [2]int{0, bptMaxKids})
	return buf
}

// bptCheck rejects an image whose key count no node can hold; every image
// read is checked before it is searched or decoded.
func bptCheck(img []byte) error {
	if n := bptN(img); n > bptMaxKeys {
		return fmt.Errorf("ds: corrupt b+tree node (n=%d)", n)
	}
	return nil
}

// decode makes n the node of the checked unit image buf.
func (n *bptNodeT) decode(buf []byte) {
	*n = bptNodeT{n: bptN(buf), isLeaf: bptIsLeaf(buf), next: bptNext(buf), img: buf}
	for i := 0; i < bptMaxKeys; i++ {
		n.keys[i] = bptKey(buf, i)
	}
	for i := 0; i < bptMaxKids; i++ {
		n.ptrs[i] = bptPtr(buf, i)
	}
}

// CreateBPTree registers a new B+Tree with an empty leaf as its root.
func CreateBPTree(c *core.Conn, name string, opts Options) (*BPTree, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeBPTree, opts.Create)
	if err != nil {
		return nil, err
	}
	root, err := c.Calloc(bptNode)
	if err != nil {
		return nil, err
	}
	leaf := &bptNodeT{isLeaf: true}
	if err := h.Write(root, encodeBPT(leaf)); err != nil {
		return nil, err
	}
	if err := h.WriteRoot(root); err != nil {
		return nil, err
	}
	if err := h.Flush(); err != nil {
		return nil, err
	}
	return newBPTree(h, opts, true)
}

// OpenBPTree attaches to an existing B+Tree.
func OpenBPTree(c *core.Conn, name string, writer bool, opts Options) (*BPTree, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	t, err := newBPTree(h, opts, writer)
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

func newBPTree(h *core.Handle, opts Options, writer bool) (*BPTree, error) {
	t := &BPTree{kvBase: newKVBase(h, opts, writer), pol: newLevelPolicy()}
	t.unit = make([]byte, bptNode)
	t.params = make([]byte, blobSrcOff+4+t.cap)
	t.blob = make([]byte, 4+t.cap)
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

// nodeImage reads the node at addr at the given depth over buf: the image
// is buf, or a view ReadInto serves — read-only, and good until the next
// read admits a unit to the cache or that node is next written.
func (t *BPTree) nodeImage(addr uint64, depth int, buf []byte) ([]byte, error) {
	img, err := t.h.ReadInto(addr, buf, t.pol.cacheable(depth))
	if err != nil {
		return nil, err
	}
	return img, bptCheck(img)
}

// descend walks from the root to the leaf that covers key — the one descent
// of Put, Get, Scan and VectorPut — leaving every node it visits in t.path,
// and returns the leaf's depth. Inner nodes are searched on the image. With
// own set, a put's descent, an image the cache or the overlay served is
// copied into its level's buffer before the walk goes further down: a split
// below rewrites the node, and by then the view may be gone — a cache view
// dies at the next admission, and the leaf fetch admits.
func (t *BPTree) descend(key uint64, own bool) (int, error) {
	addr, err := t.h.ReadRoot()
	if err != nil {
		return 0, err
	}
	for d := 0; d < bptMaxDepth; d++ {
		l := &t.path[d]
		if l.buf == nil {
			l.buf = make([]byte, bptNode)
		}
		img, err := t.nodeImage(addr, d, l.buf)
		if err != nil {
			return 0, err
		}
		if own && &img[0] != &l.buf[0] {
			img = l.buf[:copy(l.buf, img)]
		}
		l.addr, l.img = addr, img
		if bptIsLeaf(img) {
			return d, nil
		}
		l.pos = bptSearch(img, key)
		if bptHas(img, l.pos, key) {
			l.pos++
		}
		addr = bptPtr(img, l.pos)
	}
	return 0, fmt.Errorf("ds: corrupt b+tree: no leaf within %d levels", bptMaxDepth)
}

// writeNode logs the whole image of a node built in memory.
func (t *BPTree) writeNode(addr uint64, n *bptNodeT) error {
	return t.h.Write(addr, n.encode(t.unit))
}

// Header bytes an in-place rewrite dirties: the count alone, or — the kept
// half of a leaf split — through the next pointer.
const (
	bptHdrCount = 2
	bptHdrNext  = bptHdr
)

// patchNode logs an in-place change to a node this operation read and then
// changed in memory: the header and the named key and pointer slots are
// encoded over the image the node was decoded from, and the log carries
// only them and hdr leading header bytes.
func (t *BPTree) patchNode(addr uint64, n *bptNodeT, hdr int, keys, ptrs [2]int) error {
	n.encodeInto(n.img, keys, ptrs)
	return t.h.WriteRanges(addr, n.img,
		core.Range{Off: 0, Len: hdr},
		core.Range{Off: bptKeysOff + 8*keys[0], Len: 8 * (keys[1] - keys[0])},
		core.Range{Off: bptPtrsOff + 8*ptrs[0], Len: 8 * (ptrs[1] - ptrs[0])})
}

// putBlobImage encodes the blob unit of val — {vlen u32, value, zeroes to
// the capacity} — over img.
func putBlobImage(img, val []byte) []byte {
	binary.LittleEndian.PutUint32(img, uint32(len(val)))
	clear(img[4+copy(img[4:], val):])
	return img
}

// blobValue returns a copy of the value a blob unit holds.
func blobValue(img []byte) ([]byte, error) {
	vlen := binary.LittleEndian.Uint32(img)
	if int(vlen) > len(img)-4 {
		return nil, fmt.Errorf("ds: corrupt value blob (vlen=%d)", vlen)
	}
	return append([]byte(nil), img[4:4+vlen]...), nil
}

// blobParams encodes {key, blob image} op-log parameters: the blob image
// starts at byte 8, exactly as it will sit in NVM.
func (t *BPTree) blobParams(key uint64, val []byte) []byte {
	binary.LittleEndian.PutUint64(t.params, key)
	putBlobImage(t.params[blobSrcOff:], val)
	return t.params
}

// blobParamsSplit decodes blobParams for replay.
func blobParamsSplit(p []byte) (uint64, []byte, error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("ds: short blob params")
	}
	key := binary.LittleEndian.Uint64(p)
	vlen := int(binary.LittleEndian.Uint32(p[8:]))
	if 12+vlen > len(p) {
		return 0, nil, fmt.Errorf("ds: blob params vlen %d overruns", vlen)
	}
	return key, p[12 : 12+vlen], nil
}

// blobSrcOff is the offset of the blob image inside blobParams.
const blobSrcOff = 8

// writeBlob stores value bytes in a fixed-capacity blob unit; when the
// bytes came from the current op record (opAbs != 0) the memory log uses
// the pointer form ({opAbs, srcOff}) instead of inlining them.
func (t *BPTree) writeBlob(addr uint64, val []byte, opAbs uint64) error {
	img := putBlobImage(t.params[blobSrcOff:], val)
	if opAbs != 0 {
		return t.h.WriteFromOp(addr, img, opAbs, blobSrcOff)
	}
	return t.h.Write(addr, img)
}

// Put inserts or updates key. The op-log parameters embed the exact blob
// image (length prefix + padded value), so the memory log entry for the
// blob can use the pointer form of Figure 3 instead of re-shipping the
// bytes (§4.3's Flag optimization).
func (t *BPTree) Put(key uint64, val []byte) error {
	if len(val) > t.cap {
		return ErrValueTooLarge
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	opAbs, err := t.h.OpLog(OpPut, t.blobParams(key, val))
	if err != nil {
		return err
	}
	if err := t.put(key, val, opAbs); err != nil {
		return err
	}
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return t.w.end()
}

// put descends to the leaf and inserts there; a node that overflows splits
// and hands the separator key and its new right sibling to the level above,
// up to a new root. Only a node that changes is decoded, from the copy of
// it the descent left in its level's buffer.
func (t *BPTree) put(key uint64, val []byte, opAbs uint64) error {
	d, err := t.descend(key, true)
	if err != nil {
		return err
	}
	leaf := &t.path[d]
	pos := bptSearch(leaf.img, key)
	if bptHas(leaf.img, pos, key) {
		// Update: rewrite the blob only.
		return t.writeBlob(bptPtr(leaf.img, pos), val, opAbs)
	}
	blob, err := t.h.Alloc(t.cap + 4)
	if err != nil {
		return err
	}
	if err := t.writeBlob(blob, val, opAbs); err != nil {
		return err
	}
	n := &t.node
	n.decode(leaf.img)
	// Shift in.
	for i := n.n; i > pos; i-- {
		n.keys[i] = n.keys[i-1]
		n.ptrs[i] = n.ptrs[i-1]
	}
	n.keys[pos] = key
	n.ptrs[pos] = blob
	n.n++
	if n.n <= bptMaxKeys {
		return t.patchNode(leaf.addr, n, bptHdrCount, [2]int{pos, n.n}, [2]int{pos, n.n})
	}
	promo, newChild, err := t.splitLeaf(leaf.addr, n, pos)
	for d--; err == nil && d >= 0; d-- {
		// Internal: absorb the child's split.
		l := &t.path[d]
		n.decode(l.img)
		pos := l.pos
		for i := n.n; i > pos; i-- {
			n.keys[i] = n.keys[i-1]
			n.ptrs[i+1] = n.ptrs[i]
		}
		n.keys[pos] = promo
		n.ptrs[pos+1] = newChild
		n.n++
		if n.n <= bptMaxKeys {
			return t.patchNode(l.addr, n, bptHdrCount, [2]int{pos, n.n}, [2]int{pos + 1, n.n + 1})
		}
		promo, newChild, err = t.splitInternal(l.addr, n, pos)
	}
	if err != nil {
		return err
	}
	// Root split: a new internal root points at the halves.
	nr := &t.sib
	*nr = bptNodeT{n: 1}
	nr.keys[0] = promo
	nr.ptrs[0] = t.path[0].addr
	nr.ptrs[1] = newChild
	addr, err := t.h.Alloc(bptNode)
	if err != nil {
		return err
	}
	if err := t.writeNode(addr, nr); err != nil {
		return err
	}
	return t.h.WriteRoot(addr)
}

// splitLeaf splits an overfull (n = maxKeys+1 logical) leaf. The caller
// has already placed the extra entry; n.n == bptMaxKeys+1 is represented
// by n.n and the arrays holding one overflow in their last slot — to keep
// the fixed layout, the split runs on the in-memory image before any
// write happens. The right half is a new unit; the kept half changes its
// header and, if the entry went in at pos below the split point, the slots
// the insert shifted — the moved-out slots stay behind as stale bytes.
func (t *BPTree) splitLeaf(addr uint64, n *bptNodeT, pos int) (uint64, uint64, error) {
	mid := n.n / 2
	right := &t.sib
	*right = bptNodeT{isLeaf: true, next: n.next}
	right.n = n.n - mid
	for i := 0; i < right.n; i++ {
		right.keys[i] = n.keys[mid+i]
		right.ptrs[i] = n.ptrs[mid+i]
	}
	rAddr, err := t.h.Alloc(bptNode)
	if err != nil {
		return 0, 0, err
	}
	n.n = mid
	n.next = rAddr
	if err := t.writeNode(rAddr, right); err != nil {
		return 0, 0, err
	}
	lo := min(pos, mid)
	if err := t.patchNode(addr, n, bptHdrNext, [2]int{lo, mid}, [2]int{lo, mid}); err != nil {
		return 0, 0, err
	}
	return right.keys[0], rAddr, nil
}

func (t *BPTree) splitInternal(addr uint64, n *bptNodeT, pos int) (uint64, uint64, error) {
	mid := n.n / 2
	promo := n.keys[mid]
	right := &t.sib
	*right = bptNodeT{}
	right.n = n.n - mid - 1
	for i := 0; i < right.n; i++ {
		right.keys[i] = n.keys[mid+1+i]
	}
	for i := 0; i <= right.n; i++ {
		right.ptrs[i] = n.ptrs[mid+1+i]
	}
	rAddr, err := t.h.Alloc(bptNode)
	if err != nil {
		return 0, 0, err
	}
	n.n = mid
	if err := t.writeNode(rAddr, right); err != nil {
		return 0, 0, err
	}
	lo := min(pos, mid)
	if err := t.patchNode(addr, n, bptHdrCount, [2]int{lo, mid}, [2]int{lo + 1, mid + 1}); err != nil {
		return 0, 0, err
	}
	return promo, rAddr, nil
}

// Get looks up a key under the retry seqlock. The value it returns is the
// caller's own copy — its one allocation.
func (t *BPTree) Get(key uint64) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	var out []byte
	var found bool
	err := readRetry(t.h, func() error {
		out, found = nil, false
		d, err := t.descend(key, false)
		if err != nil {
			return err
		}
		leaf := t.path[d].img
		if pos := bptSearch(leaf, key); bptHas(leaf, pos, key) {
			img, err := t.h.ReadInto(bptPtr(leaf, pos), t.blob, t.pol.cacheable(d+1))
			if err != nil {
				return err
			}
			out, err = blobValue(img)
			found = err == nil
			return err
		}
		return nil
	})
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return out, found, err
}

// Scan returns up to limit key/value pairs with key >= start, walking the
// leaf chain (range queries, used by the TATP application).
func (t *BPTree) Scan(start uint64, limit int) ([]uint64, [][]byte, error) {
	t.h.Conn().Frontend().ChargeOp()
	var keys []uint64
	var vals [][]byte
	err := readRetry(t.h, func() error {
		keys, vals = nil, nil
		d, err := t.descend(start, false)
		if err != nil {
			return err
		}
		for leaf := t.path[d].img; len(keys) < limit; {
			// Gather the leaf's qualifying blob pointers and post them as
			// one multi-get: a range scan's value fetches are independent
			// reads, so the whole leaf costs one doorbell-group round trip
			// per queue-depth window instead of one RTT per value. The leaf
			// may be the cache's view: everything is taken from it first.
			var leafKeys []uint64
			var blobAddrs []uint64
			for i, n := 0, bptN(leaf); i < n && len(keys)+len(leafKeys) < limit; i++ {
				if k := bptKey(leaf, i); k >= start {
					leafKeys = append(leafKeys, k)
					blobAddrs = append(blobAddrs, bptPtr(leaf, i))
				}
			}
			next := bptNext(leaf)
			if len(blobAddrs) > 0 {
				bufs, err := t.h.ReadMulti(&t.scan, blobAddrs, t.cap+4, false)
				if err != nil {
					return err
				}
				for j, buf := range bufs {
					v, err := blobValue(buf)
					if err != nil {
						return err
					}
					keys = append(keys, leafKeys[j])
					vals = append(vals, v)
				}
			}
			if next == 0 {
				break
			}
			if leaf, err = t.nodeImage(next, 99, t.path[d].buf); err != nil {
				return err
			}
		}
		return nil
	})
	return keys, vals, err
}

// VectorPut applies a sorted batch: consecutive keys share descent path
// nodes through the cache and overlay, and their memory logs coalesce
// into one transaction (§8.3's vector operation applied to the B+Tree).
func (t *BPTree) VectorPut(keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ds: vector put length mismatch")
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	if _, err := t.h.OpLog(OpPutMany, encodePutMany(keys, vals)); err != nil {
		return err
	}
	order := sortedOrder(keys)
	for _, i := range order {
		if err := t.put(keys[i], vals[i], 0); err != nil {
			return err
		}
	}
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return t.w.end()
}

var bptreeReplay = replayTable[*BPTree]{
	split: blobParamsSplit,
	put:   func(t *BPTree, key uint64, val []byte) error { return t.put(key, val, 0) },
	many:  true,
}

// ReplayOp re-executes one pending op-log record.
func (t *BPTree) ReplayOp(rec logrec.OpRecord) error {
	return replayOp(t, "b+tree", rec, &bptreeReplay)
}

// sortedOrder returns indexes of keys in ascending key order.
func sortedOrder(keys []uint64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx
}
