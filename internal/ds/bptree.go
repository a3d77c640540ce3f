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

// BPTree is a persistent B+Tree.
type BPTree struct {
	kvBase
	pol *levelPolicy
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

func encodeBPT(n *bptNodeT) []byte {
	buf := make([]byte, bptNode)
	n.encodeInto(buf, [2]int{0, bptMaxKeys}, [2]int{0, bptMaxKids})
	return buf
}

func decodeBPT(buf []byte) (*bptNodeT, error) {
	n := &bptNodeT{img: buf}
	n.n = int(binary.LittleEndian.Uint16(buf))
	n.isLeaf = buf[2] == 1
	n.next = binary.LittleEndian.Uint64(buf[8:])
	if n.n > bptMaxKeys {
		return nil, fmt.Errorf("ds: corrupt b+tree node (n=%d)", n.n)
	}
	for i := 0; i < bptMaxKeys; i++ {
		n.keys[i] = binary.LittleEndian.Uint64(buf[bptKeysOff+8*i:])
	}
	for i := 0; i < bptMaxKids; i++ {
		n.ptrs[i] = binary.LittleEndian.Uint64(buf[bptPtrsOff+8*i:])
	}
	return n, nil
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

func (t *BPTree) readNode(addr uint64, depth int) (*bptNodeT, error) {
	buf, err := t.h.Read(addr, bptNode, t.pol.cacheable(depth))
	if err != nil {
		return nil, err
	}
	return decodeBPT(buf)
}

func (t *BPTree) writeNode(addr uint64, n *bptNodeT) error {
	return t.h.Write(addr, encodeBPT(n))
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

// blobParams encodes {key, blob image} op-log parameters: the blob image
// starts at byte 8, exactly as it will sit in NVM.
func (t *BPTree) blobParams(key uint64, val []byte) []byte {
	p := make([]byte, 8+4+t.cap)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint32(p[8:], uint32(len(val)))
	copy(p[12:], val)
	return p
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
	padded := make([]byte, t.cap+4)
	binary.LittleEndian.PutUint32(padded, uint32(len(val)))
	copy(padded[4:], val)
	if opAbs != 0 {
		return t.h.WriteFromOp(addr, padded, opAbs, blobSrcOff)
	}
	return t.h.Write(addr, padded)
}

func (t *BPTree) readBlob(addr uint64, cacheable bool) ([]byte, error) {
	buf, err := t.h.Read(addr, t.cap+4, cacheable)
	if err != nil {
		return nil, err
	}
	return t.decodeBlob(buf)
}

func (t *BPTree) decodeBlob(buf []byte) ([]byte, error) {
	vlen := binary.LittleEndian.Uint32(buf)
	if int(vlen) > t.cap {
		return nil, fmt.Errorf("ds: corrupt value blob (vlen=%d)", vlen)
	}
	return append([]byte(nil), buf[4:4+vlen]...), nil
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

func (t *BPTree) put(key uint64, val []byte, opAbs uint64) error {
	root, err := t.h.ReadRoot()
	if err != nil {
		return err
	}
	promoKey, newNode, err := t.insert(root, 0, key, val, opAbs)
	if err != nil {
		return err
	}
	if newNode != 0 {
		// Root split: a new internal root points at the halves.
		nr := &bptNodeT{n: 1}
		nr.keys[0] = promoKey
		nr.ptrs[0] = root
		nr.ptrs[1] = newNode
		addr, err := t.h.Alloc(bptNode)
		if err != nil {
			return err
		}
		if err := t.writeNode(addr, nr); err != nil {
			return err
		}
		return t.h.WriteRoot(addr)
	}
	return nil
}

// insert descends to the leaf; on overflow it splits and returns the
// separator key and the new right sibling for the parent to absorb.
func (t *BPTree) insert(addr uint64, depth int, key uint64, val []byte, opAbs uint64) (uint64, uint64, error) {
	n, err := t.readNode(addr, depth)
	if err != nil {
		return 0, 0, err
	}
	if n.isLeaf {
		pos := searchKeys(n, key)
		if pos < n.n && n.keys[pos] == key {
			// Update: rewrite the blob only.
			return 0, 0, t.writeBlob(n.ptrs[pos], val, opAbs)
		}
		blob, err := t.h.Alloc(t.cap + 4)
		if err != nil {
			return 0, 0, err
		}
		if err := t.writeBlob(blob, val, opAbs); err != nil {
			return 0, 0, err
		}
		// Shift in.
		for i := n.n; i > pos; i-- {
			n.keys[i] = n.keys[i-1]
			n.ptrs[i] = n.ptrs[i-1]
		}
		n.keys[pos] = key
		n.ptrs[pos] = blob
		n.n++
		if n.n <= bptMaxKeys {
			return 0, 0, t.patchNode(addr, n, bptHdrCount, [2]int{pos, n.n}, [2]int{pos, n.n})
		}
		return t.splitLeaf(addr, n, pos)
	}
	// Internal: pick the child.
	pos := searchKeys(n, key)
	if pos < n.n && n.keys[pos] == key {
		pos++
	}
	promo, newChild, err := t.insert(n.ptrs[pos], depth+1, key, val, opAbs)
	if err != nil {
		return 0, 0, err
	}
	if newChild == 0 {
		return 0, 0, nil
	}
	for i := n.n; i > pos; i-- {
		n.keys[i] = n.keys[i-1]
		n.ptrs[i+1] = n.ptrs[i]
	}
	n.keys[pos] = promo
	n.ptrs[pos+1] = newChild
	n.n++
	if n.n <= bptMaxKeys {
		return 0, 0, t.patchNode(addr, n, bptHdrCount, [2]int{pos, n.n}, [2]int{pos + 1, n.n + 1})
	}
	return t.splitInternal(addr, n, pos)
}

// searchKeys returns the first index with keys[i] >= key.
func searchKeys(n *bptNodeT, key uint64) int {
	lo, hi := 0, n.n
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	right := &bptNodeT{isLeaf: true, next: n.next}
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
	right := &bptNodeT{}
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

// Get looks up a key under the retry seqlock.
func (t *BPTree) Get(key uint64) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	var out []byte
	var found bool
	err := readRetry(t.h, func() error {
		out, found = nil, false
		root, err := t.h.ReadRoot()
		if err != nil {
			return err
		}
		addr := root
		depth := 0
		for {
			n, err := t.readNode(addr, depth)
			if err != nil {
				return err
			}
			pos := searchKeys(n, key)
			if n.isLeaf {
				if pos < n.n && n.keys[pos] == key {
					v, err := t.readBlob(n.ptrs[pos], t.pol.cacheable(depth+1))
					if err != nil {
						return err
					}
					out, found = v, true
				}
				return nil
			}
			if pos < n.n && n.keys[pos] == key {
				pos++
			}
			addr = n.ptrs[pos]
			depth++
		}
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
		root, err := t.h.ReadRoot()
		if err != nil {
			return err
		}
		addr := root
		depth := 0
		var leaf *bptNodeT
		for {
			n, err := t.readNode(addr, depth)
			if err != nil {
				return err
			}
			if n.isLeaf {
				leaf = n
				break
			}
			pos := searchKeys(n, start)
			if pos < n.n && n.keys[pos] == start {
				pos++
			}
			addr = n.ptrs[pos]
			depth++
		}
		for leaf != nil && len(keys) < limit {
			// Gather the leaf's qualifying blob pointers and post them as
			// one multi-get: a range scan's value fetches are independent
			// reads, so the whole leaf costs one doorbell-group round trip
			// per queue-depth window instead of one RTT per value.
			var leafKeys []uint64
			var blobAddrs []uint64
			for i := 0; i < leaf.n && len(keys)+len(leafKeys) < limit; i++ {
				if leaf.keys[i] < start {
					continue
				}
				leafKeys = append(leafKeys, leaf.keys[i])
				blobAddrs = append(blobAddrs, leaf.ptrs[i])
			}
			if len(blobAddrs) > 0 {
				bufs, err := t.h.ReadMulti(blobAddrs, t.cap+4, false)
				if err != nil {
					return err
				}
				for j, buf := range bufs {
					v, err := t.decodeBlob(buf)
					if err != nil {
						return err
					}
					keys = append(keys, leafKeys[j])
					vals = append(vals, v)
				}
			}
			if leaf.next == 0 {
				break
			}
			nn, err := t.readNode(leaf.next, 99)
			if err != nil {
				return err
			}
			leaf = nn
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
