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
// on more search paths, so high nodes are the ones worth caching — and a
// search needs only a node's tower, {header, next[0:level]}, so the tower
// is the image the DRAM cache keeps (a prefix image, core.Handle.SetAdmit):
// the bytes a full node would take hold four to five towers.
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
	slValOff         = slNextOff + SkipListMaxLevel*8
)

// Accessors over a node image: a full unit, or the tower the cache keeps.
func slKey(img []byte) uint64         { return binary.LittleEndian.Uint64(img) }
func slVlen(img []byte) int           { return int(binary.LittleEndian.Uint32(img[8:])) }
func slLevel(img []byte) int          { return int(img[12]) }
func slNext(img []byte, i int) uint64 { return binary.LittleEndian.Uint64(img[slNextOff+8*i:]) }
func slSetNext(img []byte, i int, addr uint64) {
	binary.LittleEndian.PutUint64(img[slNextOff+8*i:], addr)
}

// slTower is the length of the tower image of a node of the given height.
func slTower(level int) int { return slHdr + 8*level }

// SkipList is a persistent ordered map. The root pointer is the sentinel
// head node (full height, no key). Like its handle, a SkipList belongs to
// one actor: the descent works in structure-owned scratch.
type SkipList struct {
	kvBase
	head uint64
	pol  *levelPolicy // admission hint: towers of height >= SkipListMaxLevel-N
	hop  [2][]byte    // descent scratch: the current node and the one being compared
	path slPath
	node []byte // the unit a put is building
}

// slPath is what a writer's descent leaves behind: per level, the
// predecessor's address and a private copy of its image.
type slPath struct {
	pred [SkipListMaxLevel]uint64
	img  [SkipListMaxLevel][]byte
}

func (s *SkipList) nodeSize() int { return slValOff + s.cap }

func newSkipList(h *core.Handle, opts Options, writer bool) *SkipList {
	s := &SkipList{kvBase: newKVBase(h, opts, writer), pol: newTowerPolicy()}
	if opts.FlatCache {
		s.pol = newFlatPolicy()
	}
	s.hop[0], s.hop[1] = make([]byte, s.nodeSize()), make([]byte, s.nodeSize())
	h.SetAdmit(s.admit)
	return s
}

// CreateSkipList registers a new skip list and writes its sentinel.
func CreateSkipList(c *core.Conn, name string, opts Options) (*SkipList, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeSkipList, opts.Create)
	if err != nil {
		return nil, err
	}
	s := newSkipList(h, opts, true)
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
	s := newSkipList(h, opts, writer)
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

// admit is the handle's admission rule (core.Handle.SetAdmit): of a node
// just fetched from the fabric the cache keeps the tower, if the policy
// rates towers of that height worth the bytes. The sentinel is full
// height, so it is always in.
func (s *SkipList) admit(unit []byte) int {
	level := slLevel(unit)
	if level == 0 || level > SkipListMaxLevel || !s.pol.cacheable(SkipListMaxLevel-level) {
		return 0
	}
	return slTower(level)
}

// check validates a node image reached through a level-via pointer (-1:
// the head, or no particular level): a node linked at a level is taller
// than it, which is also what keeps next[via] inside a tower image.
func (s *SkipList) check(img []byte, via int) error {
	vlen, level := slVlen(img), slLevel(img)
	if vlen > s.cap || level <= via || level == 0 || level > SkipListMaxLevel || len(img) < slTower(level) {
		return fmt.Errorf("ds: corrupt skiplist node (vlen=%d level=%d via level %d)", vlen, level, via)
	}
	return nil
}

// readNode returns the image of the node at addr: its tower on a cache
// hit, else the whole unit from the overlay or — fetched into dst — the
// fabric. The bytes are ReadInto's: read-only, and good until that unit
// is next written or fetched.
func (s *SkipList) readNode(addr uint64, dst []byte, via int) ([]byte, error) {
	img, err := s.h.ReadInto(addr, dst, false)
	if err != nil {
		return nil, err
	}
	return img, s.check(img, via)
}

// value returns a copy of the value of the node at addr, given the image a
// descent found it by: a tower has none, so that costs one read of the
// whole unit.
func (s *SkipList) value(addr uint64, img []byte) ([]byte, error) {
	if len(img) == s.nodeSize() {
		return append([]byte(nil), img[slValOff:slValOff+slVlen(img)]...), nil
	}
	unit, err := s.h.ReadWhole(addr, s.nodeSize())
	if err != nil {
		return nil, err
	}
	if err := s.check(unit, -1); err != nil {
		return nil, err
	}
	return unit[slValOff : slValOff+slVlen(unit)], nil
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

// descend is Figure 2's traversal. It walks from the head towards key and
// stops at the level where it finds it, returning that node's address and
// image; address 0 means the walk reached the bottom without it. A writer
// passes path to have the predecessor at every level recorded (complete
// only on a miss, which is when an insert needs it). The walk allocates
// nothing: nodes are read into the two hop buffers, and the last node seen
// with a larger key is remembered so the level below does not re-read it.
func (s *SkipList) descend(key uint64, path *slPath) (uint64, []byte, error) {
	curAddr, spare := s.head, 1
	cur, err := s.readNode(curAddr, s.hop[0], -1)
	if err != nil {
		return 0, nil, err
	}
	var bound uint64
	for level := SkipListMaxLevel - 1; level >= 0; level-- {
		for {
			nxt := slNext(cur, level)
			if nxt == 0 || nxt == bound {
				break
			}
			img, err := s.readNode(nxt, s.hop[spare], level)
			if err != nil {
				return 0, nil, err
			}
			if k := slKey(img); k == key {
				return nxt, img, nil
			} else if k > key {
				bound = nxt
				break
			}
			if &img[0] == &s.hop[spare][0] {
				spare ^= 1
			}
			curAddr, cur = nxt, img
		}
		if path != nil {
			path.pred[level] = curAddr
			path.img[level] = append(path.img[level][:0], cur...)
		}
	}
	return 0, nil, nil
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

// newUnit starts a node unit in the put scratch: the given tower, the
// value, zeroes elsewhere. Handle.Write copies, so the scratch is reused.
func (s *SkipList) newUnit(tower, val []byte) []byte {
	if s.node == nil {
		s.node = make([]byte, s.nodeSize())
	}
	clear(s.node[copy(s.node, tower):])
	binary.LittleEndian.PutUint32(s.node[8:], uint32(len(val)))
	copy(s.node[slValOff:], val)
	return s.node
}

func (s *SkipList) put(key uint64, val []byte) error {
	s.pol.observeFill(s.h.Conn().Frontend())
	found, img, err := s.descend(key, &s.path)
	if err != nil {
		return err
	}
	if found != 0 {
		// Update in place. A tower is enough to rebuild the unit from: the
		// one thing it lacks is the value being replaced, and of that only
		// the length matters — what changes is vlen, if the lengths differ,
		// and the value bytes out to the longer of the two.
		old := slVlen(img)
		vlen := core.Range{Off: 8, Len: 4}
		if old == len(val) {
			vlen.Len = 0
		}
		return s.h.WriteRanges(found, s.newUnit(img[:slTower(slLevel(img))], val),
			vlen, core.Range{Off: slValOff, Len: max(old, len(val))})
	}
	lvl := s.randomLevel()
	var tower [slValOff]byte
	binary.LittleEndian.PutUint64(tower[:], key)
	tower[12] = byte(lvl)
	for i := 0; i < lvl; i++ {
		slSetNext(tower[:], i, slNext(s.path.img[i], i))
	}
	addr, err := s.h.Alloc(s.nodeSize())
	if err != nil {
		return err
	}
	// Write the fully linked new node first (§8.4's ordering)…
	if err := s.h.Write(addr, s.newUnit(tower[:slTower(lvl)], val)); err != nil {
		return err
	}
	// …then swing predecessor pointers bottom-up. Each predecessor is
	// rewritten once, with every level it precedes the new node at (those
	// levels are adjacent); the log carries just those pointers. The overlay
	// takes the whole unit, so a predecessor the walk saw only as a cached
	// tower is read whole first.
	for i := 0; i < lvl; {
		pa, unit, lo := s.path.pred[i], s.path.img[i], i
		if len(unit) < s.nodeSize() {
			if unit, err = s.h.ReadWhole(pa, s.nodeSize()); err != nil {
				return err
			}
			if err := s.check(unit, i); err != nil {
				return err
			}
		}
		for ; i < lvl && s.path.pred[i] == pa; i++ {
			slSetNext(unit, i, addr)
		}
		if err := s.h.WriteRanges(pa, unit, core.Range{Off: slNextOff + 8*lo, Len: 8 * (i - lo)}); err != nil {
			return err
		}
	}
	return nil
}

// Get looks a key up. Skip-list readers are lock-free: they fetch the
// current sequence number only to freshen their cache epoch and never
// validate or retry (§8.4: "the lock is not required").
func (s *SkipList) Get(key uint64) ([]byte, bool, error) {
	fe := s.h.Conn().Frontend()
	fe.ChargeOp()
	if !s.writer {
		if err := s.h.ReaderLock(); err != nil {
			return nil, false, err
		}
	}
	s.pol.observeFill(fe)
	addr, img, err := s.descend(key, nil)
	if err != nil || addr == 0 {
		return nil, false, err
	}
	v, err := s.value(addr, img)
	return v, err == nil, err
}

var skipListReplay = replayTable[*SkipList]{put: (*SkipList).put}

// ReplayOp re-executes one pending op-log record.
func (s *SkipList) ReplayOp(rec logrec.OpRecord) error {
	return replayOp(s, "skiplist", rec, &skipListReplay)
}
