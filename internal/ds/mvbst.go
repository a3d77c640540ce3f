package ds

import (
	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// MVBST is the multi-version binary search tree of §6.2 (Figure 5):
// nodes are immutable; a write copies every node on the path to the root
// (path copying) and atomically installs the new root. Readers are
// lock-free — they load the current root and traverse a frozen version —
// and old versions are reclaimed lazily, well after any reader that could
// still hold them has finished.
type MVBST struct {
	kvBase
	pol *levelPolicy
}

func (t *MVBST) nodeSize() int { return bstHdr + t.cap }

// CreateMVBST registers a new multi-version tree.
func CreateMVBST(c *core.Conn, name string, opts Options) (*MVBST, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeMVBST, opts.Create)
	if err != nil {
		return nil, err
	}
	return newMVBST(h, opts, true)
}

// OpenMVBST attaches to an existing multi-version tree.
func OpenMVBST(c *core.Conn, name string, writer bool, opts Options) (*MVBST, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	t, err := newMVBST(h, opts, writer)
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

func newMVBST(h *core.Handle, opts Options, writer bool) (*MVBST, error) {
	h.MultiVersion(true)
	t := &MVBST{kvBase: newKVBase(h, opts, writer), pol: newLevelPolicy()}
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

// encode/decode share the BST node layout.
func (t *MVBST) encodeNode(key, left, right uint64, val []byte) []byte {
	b := BST{kvBase: kvBase{cap: t.cap}}
	return b.encodeNode(key, left, right, val)
}

func (t *MVBST) decodeNode(buf []byte) (bstNode, error) {
	b := BST{kvBase: kvBase{cap: t.cap}}
	return b.decodeNode(buf)
}

func (t *MVBST) readNode(addr uint64, depth int) (bstNode, error) {
	buf, err := t.h.Read(addr, t.nodeSize(), t.pol.cacheable(depth))
	if err != nil {
		return bstNode{}, err
	}
	return t.decodeNode(buf)
}

// Put inserts or updates key by path copying.
func (t *MVBST) Put(key uint64, val []byte) error {
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

type mvPathEnt struct {
	addr uint64
	node bstNode
	left bool // descended into the left child
}

func (t *MVBST) put(key uint64, val []byte) error {
	root, err := t.h.ReadRoot()
	if err != nil {
		return err
	}
	var path []mvPathEnt
	cur := root
	replaceVal := false
	for cur != 0 {
		n, err := t.readNode(cur, len(path))
		if err != nil {
			return err
		}
		if n.key == key {
			path = append(path, mvPathEnt{addr: cur, node: n})
			replaceVal = true
			break
		}
		left := key < n.key
		path = append(path, mvPathEnt{addr: cur, node: n, left: left})
		if left {
			cur = n.left
		} else {
			cur = n.right
		}
	}
	// Build the new version bottom-up.
	var childAddr uint64
	if replaceVal {
		last := path[len(path)-1]
		addr, err := t.h.Alloc(t.nodeSize())
		if err != nil {
			return err
		}
		if err := t.h.Write(addr, t.encodeNode(key, last.node.left, last.node.right, val)); err != nil {
			return err
		}
		childAddr = addr
		path = path[:len(path)-1]
		t.h.DelayedFree(last.addr, t.nodeSize())
	} else {
		addr, err := t.h.Alloc(t.nodeSize())
		if err != nil {
			return err
		}
		if err := t.h.Write(addr, t.encodeNode(key, 0, 0, val)); err != nil {
			return err
		}
		childAddr = addr
	}
	for i := len(path) - 1; i >= 0; i-- {
		ent := path[i]
		l, r := ent.node.left, ent.node.right
		if ent.left {
			l = childAddr
		} else {
			r = childAddr
		}
		addr, err := t.h.Alloc(t.nodeSize())
		if err != nil {
			return err
		}
		if err := t.h.Write(addr, t.encodeNode(ent.node.key, l, r, ent.node.val)); err != nil {
			return err
		}
		childAddr = addr
	}
	// Atomic root switch through the log, then lazy reclamation of the
	// whole old path (§6.2).
	if err := t.h.WriteRoot(childAddr); err != nil {
		return err
	}
	for _, ent := range path {
		t.h.DelayedFree(ent.addr, t.nodeSize())
	}
	return nil
}

// Get traverses the version the root pointed at when the operation
// started; no locks, no retries.
func (t *MVBST) Get(key uint64) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	root, err := t.h.ReadRoot()
	if err != nil {
		return nil, false, err
	}
	cur := root
	depth := 0
	for cur != 0 {
		n, err := t.readNode(cur, depth)
		if err != nil {
			return nil, false, err
		}
		if n.key == key {
			return n.val, true, nil
		}
		if key < n.key {
			cur = n.left
		} else {
			cur = n.right
		}
		depth++
	}
	return nil, false, nil
}

var mvbstReplay = replayTable[*MVBST]{put: (*MVBST).put}

// ReplayOp re-executes one pending op-log record.
func (t *MVBST) ReplayOp(rec logrec.OpRecord) error { return replayOp(t, "mv-bst", rec, &mvbstReplay) }
