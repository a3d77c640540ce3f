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
// see a navigable list and never need a lock.
//
// What the DRAM cache keeps of a node is its 16-byte header, {key, vlen,
// level}, admitted under the key (core.Handle.AdmitKeyed) for every node a
// search visits: a header is all a search needs to choose where to start.
// A descent begins at the anchor — the nearest cached key at or below the
// one sought — and not at the head, and a cached header tells it that a
// successor's key is too large without reading the successor. Taller nodes
// sit on more search paths, so a header's eviction rank rises with height.
// Anchors rest on one invariant: a skip-list node never moves and is never
// freed, and its key and height never change — so a cached header names its
// node for as long as the list lives, for the writer and, across seqlock
// epochs, for a reader (AdmitKeyed's contract). Nothing else is taken from
// a header: links and values come from a read of the unit.
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

// Accessors over a node image: a full unit, or the header the cache keeps.
func slKey(img []byte) uint64         { return binary.LittleEndian.Uint64(img) }
func slVlen(img []byte) int           { return int(binary.LittleEndian.Uint32(img[8:])) }
func slLevel(img []byte) int          { return int(img[12]) }
func slNext(img []byte, i int) uint64 { return binary.LittleEndian.Uint64(img[slNextOff+8*i:]) }
func slSetNext(img []byte, i int, addr uint64) {
	binary.LittleEndian.PutUint64(img[slNextOff+8*i:], addr)
}

// slTower is the length of a node's header and the next pointers it uses.
func slTower(level int) int { return slHdr + 8*level }

// slRank is the eviction rank of a node's header: 0 for the level-1 half
// of the list, which so competes with any other structure's entries on
// recency alone.
func slRank(level int) uint8 { return uint8(level - 1) }

// SkipList is a persistent ordered map. The root pointer is the sentinel
// head node (full height, no key). Like its handle, a SkipList belongs to
// one actor: the descent works in structure-owned scratch.
type SkipList struct {
	kvBase
	head uint64
	hop  [2][]byte // descent scratch: the current node and the one being compared
	path slPath
	node []byte // the unit a put is building
}

// slPath is what a writer's descent leaves behind: for the levels below
// top, the predecessor's address and a private copy of its whole image.
type slPath struct {
	top  int
	pred [SkipListMaxLevel]uint64
	img  [SkipListMaxLevel][]byte
}

func (s *SkipList) nodeSize() int { return slValOff + s.cap }

func newSkipList(h *core.Handle, opts Options, writer bool) *SkipList {
	s := &SkipList{kvBase: newKVBase(h, opts, writer)}
	s.hop[0], s.hop[1] = make([]byte, s.nodeSize()), make([]byte, s.nodeSize())
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

// check validates a node image reached through a level-via pointer (-1:
// an anchor, the head, or no particular level): a node linked at a level is
// taller than it.
func (s *SkipList) check(img []byte, via int) error {
	vlen, level := slVlen(img), slLevel(img)
	if vlen > s.cap || level <= via || level == 0 || level > SkipListMaxLevel {
		return fmt.Errorf("ds: corrupt skiplist node (vlen=%d level=%d via level %d)", vlen, level, via)
	}
	return nil
}

// admit offers the header of a node whose whole image is in hand to the
// cache — whichever of overlay, fabric or a put the image came from, so
// what is cached follows the operations and not the replayer's progress.
// The head has no key to be found by.
func (s *SkipList) admit(addr uint64, unit []byte) {
	if addr != s.head {
		s.h.AdmitKeyed(addr, unit[:slHdr], len(unit), slKey(unit), slRank(slLevel(unit)))
	}
}

// readNode returns the whole image of the node at addr — the overlay's
// bytes or, fetched into dst, the fabric's — and admits its header. The
// bytes are ReadInto's: read-only, and good until that unit is next
// written or fetched.
func (s *SkipList) readNode(addr uint64, dst []byte, via int) ([]byte, error) {
	img, err := s.h.ReadInto(addr, dst, false)
	if err != nil {
		return nil, err
	}
	if err := s.check(img, via); err != nil {
		return nil, err
	}
	s.admit(addr, img)
	return img, nil
}

// whole returns a private copy of the unit at addr, for a caller that
// knows the node only by its cached header: one read, of the overlay or
// the fabric.
func (s *SkipList) whole(addr uint64) ([]byte, error) {
	unit, err := s.h.Read(addr, s.nodeSize(), false)
	if err != nil {
		return nil, err
	}
	return unit, s.check(unit, -1)
}

// value returns a copy of the value of the node at addr, given the image a
// descent found it by.
func (s *SkipList) value(addr uint64, img []byte) ([]byte, error) {
	if len(img) == s.nodeSize() {
		return append([]byte(nil), img[slValOff:slValOff+slVlen(img)]...), nil
	}
	unit, err := s.whole(addr)
	if err != nil {
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

// slWalk is a descent's position: the node it stands on, whole, in a hop
// buffer or the overlay's own bytes, and the last node seen with a larger
// key, which no lower level compares again.
type slWalk struct {
	s     *SkipList
	key   uint64
	addr  uint64
	img   []byte
	spare int // the hop buffer img is not in
	bound uint64
}

// start stands the walk on the node at addr.
func (w *slWalk) start(addr uint64) (err error) {
	w.addr, w.spare = addr, 1
	w.img, err = w.s.readNode(addr, w.s.hop[0], -1)
	return err
}

// level runs Figure 2's loop at one level: forward while the successor's
// key is smaller. A successor whose cached header says its key is larger
// is not read at all. A node holding the key ends the walk: its address
// and whole image are returned.
func (w *slWalk) level(l int) (uint64, []byte, error) {
	s := w.s
	for {
		nxt := slNext(w.img, l)
		if nxt == 0 || nxt == w.bound {
			return 0, nil, nil
		}
		if hdr, ok := s.h.Cached(nxt); ok && slKey(hdr) > w.key {
			w.bound = nxt
			return 0, nil, nil
		}
		img, err := s.readNode(nxt, s.hop[w.spare], l)
		if err != nil {
			return 0, nil, err
		}
		if k := slKey(img); k == w.key {
			return nxt, img, nil
		} else if k > w.key {
			w.bound = nxt
			return 0, nil, nil
		}
		if &img[0] == &s.hop[w.spare][0] {
			w.spare ^= 1
		}
		w.addr, w.img = nxt, img
	}
}

// record notes the walk's node as the predecessor at level l.
func (w *slWalk) record(path *slPath, l int) {
	path.pred[l] = w.addr
	path.img[l] = append(path.img[l][:0], w.img...)
}

// descend is Figure 2's traversal from the anchor: the nearest cached key
// at or below key, or the head when nothing is cached. An anchor that holds
// the key is the answer, known by its header alone; any other is read whole
// and the walk runs from its top level down, stopping at the level where it
// finds the key. It returns the node's address and the image it was found
// by; address 0 means the walk reached the bottom without it. A writer
// passes path to have the predecessors recorded, for the anchor's levels
// (all of them, from the head), and gets the walk back to climb higher
// with. The walk allocates nothing.
func (s *SkipList) descend(key uint64, path *slPath) (slWalk, uint64, []byte, error) {
	w := slWalk{s: s, key: key}
	from := s.head
	if a, hdr, ok := s.h.Floor(key, 0); ok {
		if slKey(hdr) == key {
			return w, a, hdr, nil
		}
		from = a
	}
	if err := w.start(from); err != nil {
		return w, 0, nil, err
	}
	top := slLevel(w.img)
	if path != nil {
		path.top = top
	}
	for l := top - 1; l >= 0; l-- {
		if found, img, err := w.level(l); found != 0 || err != nil {
			return w, found, img, err
		}
		if path != nil {
			w.record(path, l)
		}
	}
	return w, 0, nil, nil
}

// climb extends the path of a descent that did not find its key to levels
// [path.top, lvl), which an insert taller than its anchor needs. Each
// level starts at the nearest cached predecessor taller than the level —
// almost always the predecessor itself, since tall headers are the last to
// be evicted — unless the walk already stands on one as near; with neither,
// at the head.
func (s *SkipList) climb(w *slWalk, lvl int, path *slPath) error {
	for l := path.top; l < lvl; l++ {
		a, hdr, ok := s.h.Floor(w.key, uint8(l)) // rank >= l: taller than l
		stay := slLevel(w.img) > l && (!ok || a == w.addr || w.addr != s.head && slKey(w.img) > slKey(hdr))
		if !stay {
			if !ok {
				a = s.head
			}
			if err := w.start(a); err != nil {
				return err
			}
		}
		if found, _, err := w.level(l); err != nil {
			return err
		} else if found != 0 {
			return fmt.Errorf("ds: corrupt skiplist: key %d linked at level %d but not at level 0", w.key, l)
		}
		w.record(path, l)
	}
	path.top = lvl
	return nil
}

// Put inserts or updates key.
func (s *SkipList) Put(key uint64, val []byte) error {
	if len(val) > s.cap {
		return ErrValueTooLarge
	}
	if err := s.w.begin(); err != nil {
		return err
	}
	if _, err := s.h.OpLog(OpPut, s.kv(key, val)); err != nil {
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
	w, found, img, err := s.descend(key, &s.path)
	if err != nil {
		return err
	}
	if found != 0 {
		// Update in place. The overlay takes the whole unit, so a node known
		// only by its header is read whole first. What changes is vlen, if the
		// lengths differ, and the value bytes out to the longer of the two.
		if len(img) < s.nodeSize() {
			if img, err = s.whole(found); err != nil {
				return err
			}
		}
		old := slVlen(img)
		vlen := core.Range{Off: 8, Len: 4}
		if old == len(val) {
			vlen.Len = 0
		}
		return s.h.WriteRanges(found, s.newUnit(img[:slTower(slLevel(img))], val),
			vlen, core.Range{Off: slValOff, Len: max(old, len(val))})
	}
	lvl := s.randomLevel()
	if lvl > s.path.top {
		if err := s.climb(&w, lvl, &s.path); err != nil {
			return err
		}
	}
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
	unit := s.newUnit(tower[:slTower(lvl)], val)
	if err := s.h.Write(addr, unit); err != nil {
		return err
	}
	s.admit(addr, unit)
	// …then swing predecessor pointers bottom-up. Each predecessor is
	// rewritten once, with every level it precedes the new node at (those
	// levels are adjacent); the log carries just those pointers, the overlay
	// the whole unit the path holds.
	for i := 0; i < lvl; {
		pa, unit, lo := s.path.pred[i], s.path.img[i], i
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
	s.h.Conn().Frontend().ChargeOp()
	if !s.writer {
		if err := s.h.ReaderLock(); err != nil {
			return nil, false, err
		}
	}
	_, addr, img, err := s.descend(key, nil)
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
