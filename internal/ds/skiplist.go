package ds

import (
	"encoding/binary"
	"fmt"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// SkipList is the lock-free skip list of §8.4. Level heights are drawn
// with p = 0.5; insertion first writes the fully-linked new node, then
// updates predecessor pointers bottom-up, so concurrent readers always
// see a navigable list and never need a lock. Nodes with more levels sit
// on more search paths, so high nodes are the ones worth caching.
//
// Node layout (fixed size so a node is a single read unit):
//
//	{key u64, vlen u32, level u8, pad3, next[MaxLevel]u64, value[cap]}
const (
	// SkipListMaxLevel bounds tower heights; with p=0.5 this comfortably
	// covers tens of millions of keys.
	SkipListMaxLevel = 16
	slHdr            = 16
	slNextOff        = 16
	// slCacheLevel: nodes with at least this many levels are cached.
	slCacheLevel = 3
)

// SkipList is a persistent ordered map. The root pointer is the sentinel
// head node (full height, no key).
type SkipList struct {
	kvBase
	head uint64
}

func (s *SkipList) nodeSize() int { return slHdr + SkipListMaxLevel*8 + s.cap }

// CreateSkipList registers a new skip list and writes its sentinel.
func CreateSkipList(c *core.Conn, name string, opts Options) (*SkipList, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeSkipList, opts.Create)
	if err != nil {
		return nil, err
	}
	s := &SkipList{kvBase: newKVBase(h, opts, true)}
	// Sentinel head: full height, all next pointers nil. Initialized
	// through the log path so mirrors replicate it.
	head, err := c.Calloc(uint64(s.nodeSize()))
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, s.nodeSize())
	hdr[12] = SkipListMaxLevel
	if err := h.Write(head, hdr); err != nil {
		return nil, err
	}
	if err := h.WriteRoot(head); err != nil {
		return nil, err
	}
	if err := h.Flush(); err != nil {
		return nil, err
	}
	s.head = head
	if !opts.LockPerOp {
		if err := h.WriterLock(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenSkipList attaches to an existing skip list.
func OpenSkipList(c *core.Conn, name string, writer bool, opts Options) (*SkipList, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	s := &SkipList{kvBase: newKVBase(h, opts, writer)}
	head, err := h.ReadRoot()
	if err != nil {
		return nil, err
	}
	s.head = head
	if writer {
		if !opts.LockPerOp {
			if err := h.WriterLock(); err != nil {
				return nil, err
			}
		}
		if _, err := ReplayPending(h, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type slNode struct {
	key   uint64
	level int
	next  [SkipListMaxLevel]uint64
	val   []byte
}

func (s *SkipList) encodeNode(n *slNode) []byte {
	buf := make([]byte, s.nodeSize())
	binary.LittleEndian.PutUint64(buf, n.key)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(n.val)))
	buf[12] = byte(n.level)
	for i := 0; i < SkipListMaxLevel; i++ {
		binary.LittleEndian.PutUint64(buf[slNextOff+8*i:], n.next[i])
	}
	copy(buf[slHdr+SkipListMaxLevel*8:], n.val)
	return buf
}

func (s *SkipList) decodeNode(buf []byte) (*slNode, error) {
	n := &slNode{}
	n.key = binary.LittleEndian.Uint64(buf)
	vlen := binary.LittleEndian.Uint32(buf[8:])
	n.level = int(buf[12])
	if int(vlen) > s.cap || n.level == 0 || n.level > SkipListMaxLevel {
		return nil, fmt.Errorf("ds: corrupt skiplist node (vlen=%d level=%d)", vlen, n.level)
	}
	for i := 0; i < SkipListMaxLevel; i++ {
		n.next[i] = binary.LittleEndian.Uint64(buf[slNextOff+8*i:])
	}
	vBase := slHdr + SkipListMaxLevel*8
	n.val = append([]byte(nil), buf[vBase:vBase+int(vlen)]...)
	return n, nil
}

// readNode reads a node; high towers get cached after the level is known.
func (s *SkipList) readNode(addr uint64) (*slNode, error) {
	buf, err := s.h.Read(addr, s.nodeSize(), false)
	if err != nil {
		return nil, err
	}
	n, err := s.decodeNode(buf)
	if err != nil {
		return nil, err
	}
	if n.level >= slCacheLevel || addr == s.head {
		s.h.CachePut(addr, buf)
	}
	return n, nil
}

// randomLevel draws a tower height with p = 0.5 (the paper sets p=0.5).
func (s *SkipList) randomLevel() int {
	lvl := 1
	r := s.h.Conn().Frontend().Rand()
	for lvl < SkipListMaxLevel && r&1 == 1 {
		lvl++
		r >>= 1
	}
	return lvl
}

// findPreds locates the predecessor node at every level (Figure 2's
// traversal), returning their addresses and decoded images.
func (s *SkipList) findPreds(key uint64) ([SkipListMaxLevel]uint64, map[uint64]*slNode, *slNode, error) {
	var preds [SkipListMaxLevel]uint64
	images := make(map[uint64]*slNode)
	cur := s.head
	curN, err := s.readNode(cur)
	if err != nil {
		return preds, nil, nil, err
	}
	images[cur] = curN
	var foundNode *slNode
	for level := SkipListMaxLevel - 1; level >= 0; level-- {
		for {
			nxt := curN.next[level]
			if nxt == 0 {
				break
			}
			nxtN, ok := images[nxt]
			if !ok {
				nxtN, err = s.readNode(nxt)
				if err != nil {
					return preds, nil, nil, err
				}
				images[nxt] = nxtN
			}
			if nxtN.key < key {
				cur, curN = nxt, nxtN
				continue
			}
			if nxtN.key == key {
				foundNode = nxtN
			}
			break
		}
		preds[level] = cur
	}
	return preds, images, foundNode, nil
}

// Put inserts or updates key.
func (s *SkipList) Put(key uint64, val []byte) error {
	if len(val) > s.cap {
		return ErrValueTooLarge
	}
	if err := s.w.begin(); err != nil {
		return err
	}
	if _, err := s.h.OpLog(OpPut, kvParams(key, val)); err != nil {
		return err
	}
	if err := s.put(key, val); err != nil {
		return err
	}
	return s.w.end()
}

func (s *SkipList) put(key uint64, val []byte) error {
	preds, images, found, err := s.findPreds(key)
	if err != nil {
		return err
	}
	if found != nil {
		// Update in place: find the node's address via pred level 0.
		addr := images[preds[0]].next[0]
		upd := *found
		upd.val = val
		return s.h.Write(addr, s.encodeNode(&upd))
	}
	lvl := s.randomLevel()
	node := &slNode{key: key, level: lvl, val: val}
	for i := 0; i < lvl; i++ {
		node.next[i] = images[preds[i]].next[i]
	}
	addr, err := s.h.Alloc(s.nodeSize())
	if err != nil {
		return err
	}
	// Write the fully linked new node first (§8.4's ordering)…
	if err := s.h.Write(addr, s.encodeNode(node)); err != nil {
		return err
	}
	// …then swing predecessor pointers bottom-up. Each predecessor is
	// rewritten as a whole unit; duplicates are coalesced per level set.
	for i := 0; i < lvl; i++ {
		p := images[preds[i]]
		p.next[i] = addr
	}
	written := make(map[uint64]bool)
	for i := 0; i < lvl; i++ {
		pa := preds[i]
		if written[pa] {
			continue
		}
		written[pa] = true
		if err := s.h.Write(pa, s.encodeNode(images[pa])); err != nil {
			return err
		}
	}
	return nil
}

// Get looks a key up. Skip-list readers are lock-free: they fetch the
// current sequence number only to freshen their cache epoch and never
// validate or retry (§8.4: "the lock is not required").
func (s *SkipList) Get(key uint64) ([]byte, bool, error) {
	s.h.Conn().Frontend().ChargeOp()
	if !s.writer {
		if err := s.h.ReaderLock(); err != nil {
			return nil, false, err
		}
	}
	_, _, found, err := s.findPreds(key)
	if err != nil {
		return nil, false, err
	}
	if found == nil {
		return nil, false, nil
	}
	return found.val, true, nil
}

var skipListReplay = replayTable[*SkipList]{put: (*SkipList).put}

// ReplayOp re-executes one pending op-log record.
func (s *SkipList) ReplayOp(rec logrec.OpRecord) error {
	return replayOp(s, "skiplist", rec, &skipListReplay)
}
