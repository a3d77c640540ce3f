package ds

import (
	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// MVBPTree is the multi-version B+Tree: the append-only B-Tree design the
// paper cites (§6.2), realized with path copying over the same node
// layout as BPTree. Every write allocates fresh copies of the touched
// path (plus split siblings and the value blob) and installs a new root;
// readers traverse frozen versions lock-free. Leaf chaining is not
// maintained across versions (point queries only), as in append-only
// B-Trees where the chain is rebuilt by compaction.
type MVBPTree struct {
	kvBase
	pol *levelPolicy
}

// CreateMVBPTree registers a new multi-version B+Tree.
func CreateMVBPTree(c *core.Conn, name string, opts Options) (*MVBPTree, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeMVBPTree, opts.Create)
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
	return newMVBPTree(h, opts, true)
}

// OpenMVBPTree attaches to an existing multi-version B+Tree.
func OpenMVBPTree(c *core.Conn, name string, writer bool, opts Options) (*MVBPTree, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	t, err := newMVBPTree(h, opts, writer)
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

func newMVBPTree(h *core.Handle, opts Options, writer bool) (*MVBPTree, error) {
	h.MultiVersion(true)
	t := &MVBPTree{kvBase: newKVBase(h, opts, writer), pol: newLevelPolicy()}
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

// encodeBPT and decodeBPT are the allocating codec of a tree that builds a
// new node for every node it changes.
func encodeBPT(n *bptNodeT) []byte { return n.encode(make([]byte, bptNode)) }

func decodeBPT(buf []byte) (*bptNodeT, error) {
	if err := bptCheck(buf); err != nil {
		return nil, err
	}
	n := new(bptNodeT)
	n.decode(buf)
	return n, nil
}

func (t *MVBPTree) readNode(addr uint64, depth int) (*bptNodeT, error) {
	buf, err := t.h.Read(addr, bptNode, t.pol.cacheable(depth))
	if err != nil {
		return nil, err
	}
	return decodeBPT(buf)
}

func (t *MVBPTree) newNode(n *bptNodeT) (uint64, error) {
	addr, err := t.h.Alloc(bptNode)
	if err != nil {
		return 0, err
	}
	n.next = 0 // chains are not maintained across versions
	return addr, t.h.Write(addr, encodeBPT(n))
}

func (t *MVBPTree) writeBlob(val []byte) (uint64, error) {
	addr, err := t.h.Alloc(t.cap + 4)
	if err != nil {
		return 0, err
	}
	return addr, t.h.Write(addr, putBlobImage(make([]byte, t.cap+4), val))
}

// Put installs a new version containing the key.
func (t *MVBPTree) Put(key uint64, val []byte) error {
	if len(val) > t.cap {
		return ErrValueTooLarge
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	if _, err := t.h.OpLog(OpPut, t.kv(key, val)); err != nil {
		t.w.cancel()
		return err
	}
	if err := t.put(key, val); err != nil {
		t.w.cancel()
		return err
	}
	t.pol.observe(t.h.Conn().Frontend().Stats())
	return t.w.end()
}

func (t *MVBPTree) put(key uint64, val []byte) error {
	root, err := t.h.ReadRoot()
	if err != nil {
		return err
	}
	newAddr, promo, sib, err := t.insertCopy(root, 0, key, val)
	if err != nil {
		return err
	}
	if sib != 0 {
		nr := &bptNodeT{n: 1}
		nr.keys[0] = promo
		nr.ptrs[0] = newAddr
		nr.ptrs[1] = sib
		rootAddr, err := t.newNode(nr)
		if err != nil {
			return err
		}
		newAddr = rootAddr
	}
	if err := t.h.WriteRoot(newAddr); err != nil {
		return err
	}
	return nil
}

// insertCopy returns the address of the copied subtree root and, on
// split, the separator and the new right sibling.
func (t *MVBPTree) insertCopy(addr uint64, depth int, key uint64, val []byte) (uint64, uint64, uint64, error) {
	n, err := t.readNode(addr, depth)
	if err != nil {
		return 0, 0, 0, err
	}
	cp := *n // copy-on-write image
	if n.isLeaf {
		pos := bptSearch(n.img, key)
		blob, err := t.writeBlob(val)
		if err != nil {
			return 0, 0, 0, err
		}
		if pos < n.n && n.keys[pos] == key {
			t.h.DelayedFree(cp.ptrs[pos], t.cap+4)
			cp.ptrs[pos] = blob
		} else {
			for i := cp.n; i > pos; i-- {
				cp.keys[i] = cp.keys[i-1]
				cp.ptrs[i] = cp.ptrs[i-1]
			}
			cp.keys[pos] = key
			cp.ptrs[pos] = blob
			cp.n++
		}
		t.h.DelayedFree(addr, bptNode)
		if cp.n <= bptMaxKeys {
			na, err := t.newNode(&cp)
			return na, 0, 0, err
		}
		// Split into two fresh leaves.
		mid := cp.n / 2
		right := &bptNodeT{isLeaf: true, n: cp.n - mid}
		for i := 0; i < right.n; i++ {
			right.keys[i] = cp.keys[mid+i]
			right.ptrs[i] = cp.ptrs[mid+i]
		}
		cp.n = mid
		la, err := t.newNode(&cp)
		if err != nil {
			return 0, 0, 0, err
		}
		ra, err := t.newNode(right)
		if err != nil {
			return 0, 0, 0, err
		}
		return la, right.keys[0], ra, nil
	}
	pos := bptSearch(n.img, key)
	if pos < n.n && n.keys[pos] == key {
		pos++
	}
	childNew, promo, sib, err := t.insertCopy(n.ptrs[pos], depth+1, key, val)
	if err != nil {
		return 0, 0, 0, err
	}
	cp.ptrs[pos] = childNew
	if sib != 0 {
		for i := cp.n; i > pos; i-- {
			cp.keys[i] = cp.keys[i-1]
			cp.ptrs[i+1] = cp.ptrs[i]
		}
		cp.keys[pos] = promo
		cp.ptrs[pos+1] = sib
		cp.n++
	}
	t.h.DelayedFree(addr, bptNode)
	if cp.n <= bptMaxKeys {
		na, err := t.newNode(&cp)
		return na, 0, 0, err
	}
	mid := cp.n / 2
	upKey := cp.keys[mid]
	right := &bptNodeT{n: cp.n - mid - 1}
	for i := 0; i < right.n; i++ {
		right.keys[i] = cp.keys[mid+1+i]
	}
	for i := 0; i <= right.n; i++ {
		right.ptrs[i] = cp.ptrs[mid+1+i]
	}
	cp.n = mid
	la, err := t.newNode(&cp)
	if err != nil {
		return 0, 0, 0, err
	}
	ra, err := t.newNode(right)
	if err != nil {
		return 0, 0, 0, err
	}
	return la, upKey, ra, nil
}

// Get traverses a frozen version lock-free.
func (t *MVBPTree) Get(key uint64) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	root, err := t.h.ReadRoot()
	if err != nil {
		return nil, false, err
	}
	addr := root
	depth := 0
	for {
		n, err := t.readNode(addr, depth)
		if err != nil {
			return nil, false, err
		}
		pos := bptSearch(n.img, key)
		if n.isLeaf {
			if pos < n.n && n.keys[pos] == key {
				buf, err := t.h.Read(n.ptrs[pos], t.cap+4, t.pol.cacheable(depth+1))
				if err != nil {
					return nil, false, err
				}
				v, err := blobValue(buf)
				return v, err == nil, err
			}
			return nil, false, nil
		}
		if pos < n.n && n.keys[pos] == key {
			pos++
		}
		addr = n.ptrs[pos]
		depth++
	}
}

var mvbptreeReplay = replayTable[*MVBPTree]{put: (*MVBPTree).put}

// ReplayOp re-executes one pending op-log record.
func (t *MVBPTree) ReplayOp(rec logrec.OpRecord) error {
	return replayOp(t, "mv-b+tree", rec, &mvbptreeReplay)
}
