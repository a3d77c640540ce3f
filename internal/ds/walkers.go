package ds

import (
	"encoding/binary"

	"asymnvm/internal/core"
)

// Multi-get walkers: each structure expresses its batched lookup as a
// sequence of fetch rounds — "read these addresses at this unit size" —
// so the same descent logic can run either against a single back-end
// (runWalker, via Handle.ReadMulti) or interleaved with other partitions'
// walkers inside a cross-backend fan-out window (Sharded.GetMulti,
// via Handle.PostReadMulti). The rounds replicate the exact read sequence
// of the structure's own batched or sequential lookup, so caching and
// virtual-clock charges stay identical between the two drivers.

// fetchReq is one fetch round: all addrs are read at the same unit size
// and cacheability.
type fetchReq struct {
	addrs     []uint64
	unit      int
	cacheable bool
}

// getWalker advances a batched lookup one fetch round at a time. next
// returns the round to fetch (ok=false when the walk is complete); absorb
// consumes the fetched buffers, index-matched to the round's addrs.
type getWalker interface {
	next() (fetchReq, bool)
	absorb(bufs [][]byte) error
}

// runWalker drives a walker to completion against its own back-end, reading
// every round into mb: nil for a walker that keeps the images of one round
// past the next.
func runWalker(h *core.Handle, w getWalker, mb *core.MultiBuf) error {
	for {
		req, ok := w.next()
		if !ok {
			return nil
		}
		bufs, err := h.ReadMulti(mb, req.addrs, req.unit, req.cacheable)
		if err != nil {
			return err
		}
		if err := w.absorb(bufs); err != nil {
			return err
		}
	}
}

// handled is implemented by every concrete KV kind: access to the
// framework handle.
type handled interface {
	Handle() *core.Handle
}

// multiKV is a KV kind with a native batched lookup that Sharded can
// interleave across back-ends.
type multiKV interface {
	KV
	handled
	GetMulti(keys []uint64) ([][]byte, []bool, error)
	newGetWalker(keys []uint64, vals [][]byte, found []bool) getWalker
	// readValidate reports whether reader-side walks must be bracketed by
	// the retry seqlock (false for lock-free readers, §8.4's skip list).
	readValidate() bool
}

// --- hash table ---------------------------------------------------------

// htWalker is the hash table's batched lookup: one round of bucket heads,
// then level-synchronous chain rounds. It reads the images of a round where
// absorb is handed them and copies a value only out of the node whose key
// matched, into slab — so a walker that is kept (HashTable.GetMulti's) walks
// without allocating.
type htWalker struct {
	t     *HashTable
	keys  []uint64
	vals  [][]byte
	found []bool
	slab  []byte   // the matched values: what vals slice into
	heads []uint64 // the first round: every key's bucket word
	idx   []int    // active chains: position in keys
	addrs []uint64 // active chains: current node address
	phase int      // 0 = heads round pending, 1 = chain rounds
}

func (t *HashTable) newGetWalker(keys []uint64, vals [][]byte, found []bool) getWalker {
	w := &htWalker{t: t, vals: vals, found: found}
	w.start(keys)
	return w
}

func (t *HashTable) readValidate() bool { return true }

// start sets the walker at the beginning of a walk for keys, no key found.
func (w *htWalker) start(keys []uint64) {
	w.keys, w.phase = keys, 0
	w.slab, w.heads, w.idx, w.addrs = w.slab[:0], w.heads[:0], w.idx[:0], w.addrs[:0]
	clear(w.vals)
	clear(w.found)
}

func (w *htWalker) next() (fetchReq, bool) {
	if w.phase == 0 {
		for _, k := range w.keys {
			w.heads = append(w.heads, w.t.bucketAddr(k))
		}
		return fetchReq{addrs: w.heads, unit: 8, cacheable: true}, true
	}
	if len(w.idx) == 0 {
		return fetchReq{}, false
	}
	return fetchReq{addrs: w.addrs, unit: w.t.nodeSize(), cacheable: true}, true
}

func (w *htWalker) absorb(bufs [][]byte) error {
	if w.phase == 0 {
		w.phase = 1
		for i, hb := range bufs {
			if n := binary.LittleEndian.Uint64(hb); n != 0 {
				w.idx = append(w.idx, i)
				w.addrs = append(w.addrs, n)
			}
		}
		return nil
	}
	live := 0 // chains that go on, compacted to the front of idx and addrs
	for j, img := range bufs {
		if err := w.t.check(img); err != nil {
			return err
		}
		i := w.idx[j]
		if htKey(img) == w.keys[i] {
			n := len(w.slab)
			w.slab = append(w.slab, htValue(img)...)
			w.vals[i], w.found[i] = w.slab[n:len(w.slab):len(w.slab)], true
		} else if next := htNext(img); next != 0 {
			w.idx[live], w.addrs[live] = i, next
			live++
		}
	}
	w.idx, w.addrs = w.idx[:live], w.addrs[:live]
	return nil
}

// --- skip list ----------------------------------------------------------

// slCursor is one key's descent position.
type slCursor struct {
	cur   uint64 // current node address
	level int    // current descent level; slFromTop = not started: cur's top level
	done  bool
}

const slFromTop = -1

// slWalker runs the skip-list descent for a whole batch, sharing one image
// map: a round fetches every node any cursor needs and is missing,
// deduplicated in first-need order, then all cursors advance as far as the
// images allow. Images are whole units; as in descend, every cursor starts
// at its anchor, every node fetched has its header admitted, and a cached
// header that says a successor's key is too large saves its fetch.
type slWalker struct {
	s       *SkipList
	keys    []uint64
	vals    [][]byte
	found   []bool
	images  map[uint64][]byte
	curs    []slCursor
	need    []uint64
	needSet map[uint64]bool
}

func (s *SkipList) newGetWalker(keys []uint64, vals [][]byte, found []bool) getWalker {
	w := &slWalker{
		s: s, keys: keys, vals: vals, found: found,
		images:  make(map[uint64][]byte),
		curs:    make([]slCursor, len(keys)),
		needSet: make(map[uint64]bool),
	}
	for i, key := range keys {
		from := s.head
		if a, _, ok := s.h.Floor(key, 0); ok {
			from = a
		}
		w.curs[i] = slCursor{cur: from, level: slFromTop}
		w.require(from)
	}
	return w
}

func (s *SkipList) readValidate() bool { return false }

func (w *slWalker) require(addr uint64) {
	if !w.needSet[addr] {
		w.needSet[addr] = true
		w.need = append(w.need, addr)
	}
}

func (w *slWalker) next() (fetchReq, bool) {
	if len(w.need) == 0 {
		return fetchReq{}, false
	}
	return fetchReq{addrs: w.need, unit: w.s.nodeSize(), cacheable: false}, true
}

func (w *slWalker) absorb(bufs [][]byte) error {
	for j, buf := range bufs {
		if err := w.s.check(buf, -1); err != nil {
			return err
		}
		w.s.admit(w.need[j], buf)
		w.images[w.need[j]] = buf
	}
	w.need = w.need[:0]
	w.needSet = make(map[uint64]bool)
	for i := range w.curs {
		if err := w.advance(i); err != nil {
			return err
		}
	}
	return nil
}

// advance pushes cursor i down the list until it completes or needs a
// node image the walker has not fetched yet.
func (w *slWalker) advance(i int) error {
	c := &w.curs[i]
	if c.done {
		return nil
	}
	key := w.keys[i]
	curN := w.images[c.cur]
	if curN == nil {
		w.require(c.cur)
		return nil
	}
	if c.level == slFromTop {
		if c.cur != w.s.head && slKey(curN) == key { // the anchor holds the key
			w.finish(c, i, curN)
			return nil
		}
		c.level = slLevel(curN) - 1
	}
	for c.level >= 0 {
		nxt := slNext(curN, c.level)
		if nxt == 0 {
			c.level--
			continue
		}
		nxtN, ok := w.images[nxt]
		if !ok {
			if hdr, ok := w.s.h.Cached(nxt); ok && slKey(hdr) > key {
				c.level--
				continue
			}
			w.require(nxt)
			return nil
		}
		if err := w.s.check(nxtN, c.level); err != nil {
			return err
		}
		switch k := slKey(nxtN); {
		case k < key:
			c.cur, curN = nxt, nxtN
		case k == key:
			w.finish(c, i, nxtN)
			return nil
		default:
			c.level--
		}
	}
	c.done = true
	return nil
}

// finish completes cursor c with the value in unit.
func (w *slWalker) finish(c *slCursor, i int, unit []byte) {
	w.vals[i] = append([]byte(nil), unit[slValOff:slValOff+slVlen(unit)]...)
	w.found[i], c.done = true, true
}

// GetMulti looks a batch of keys up with posted-verb parallelism: every
// round fetches all nodes the batched descent needs next in one doorbell
// group. Lock-free like Get — readers freshen their cache epoch and never
// validate. Results index-match keys.
func (s *SkipList) GetMulti(keys []uint64) ([][]byte, []bool, error) {
	s.h.Conn().Frontend().ChargeOp()
	if !s.writer {
		if err := s.h.ReaderLock(); err != nil {
			return nil, nil, err
		}
	}
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	if err := runWalker(s.h, s.newGetWalker(keys, vals, found), nil); err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// --- binary search tree -------------------------------------------------

// bstCursor is one key's descent position.
type bstCursor struct {
	cur  uint64
	done bool
}

// bstWalker descends the tree level-synchronously: all active cursors sit
// at the same depth each round, so the round shares the adaptive level
// policy's caching decision for that depth. The first round fetches the
// root pointer.
type bstWalker struct {
	t     *BST
	keys  []uint64
	vals  [][]byte
	found []bool
	curs  []bstCursor
	addrs []uint64 // deduplicated addresses of the pending round
	depth int      // -1 = root pointer round pending
}

func (t *BST) newGetWalker(keys []uint64, vals [][]byte, found []bool) getWalker {
	return &bstWalker{t: t, keys: keys, vals: vals, found: found,
		curs: make([]bstCursor, len(keys)), depth: -1}
}

func (t *BST) readValidate() bool { return true }

func (w *bstWalker) next() (fetchReq, bool) {
	if w.depth < 0 {
		return fetchReq{addrs: []uint64{w.t.h.RootAddr()}, unit: 8, cacheable: true}, true
	}
	seen := make(map[uint64]bool)
	w.addrs = w.addrs[:0]
	for i := range w.curs {
		c := &w.curs[i]
		if c.done || seen[c.cur] {
			continue
		}
		seen[c.cur] = true
		w.addrs = append(w.addrs, c.cur)
	}
	if len(w.addrs) == 0 {
		return fetchReq{}, false
	}
	return fetchReq{addrs: w.addrs, unit: w.t.nodeSize(), cacheable: w.t.pol.cacheable(w.depth)}, true
}

func (w *bstWalker) absorb(bufs [][]byte) error {
	if w.depth < 0 {
		w.depth = 0
		root := binary.LittleEndian.Uint64(bufs[0])
		for i := range w.curs {
			if root == 0 {
				w.curs[i].done = true
			} else {
				w.curs[i].cur = root
			}
		}
		return nil
	}
	nodes := make(map[uint64]bstNode, len(bufs))
	for j, buf := range bufs {
		n, err := w.t.decodeNode(buf)
		if err != nil {
			return err
		}
		nodes[w.addrs[j]] = n
	}
	for i := range w.curs {
		c := &w.curs[i]
		if c.done {
			continue
		}
		n := nodes[c.cur]
		key := w.keys[i]
		switch {
		case key == n.key:
			w.vals[i], w.found[i] = n.val, true
			c.done = true
		case key < n.key:
			if n.left == 0 {
				c.done = true
			} else {
				c.cur = n.left
			}
		default:
			if n.right == 0 {
				c.done = true
			} else {
				c.cur = n.right
			}
		}
	}
	w.depth++
	return nil
}

// GetMulti looks a batch of keys up under the retry seqlock with
// posted-verb parallelism: the batch descends level-synchronously, one
// doorbell group of independent node reads per tree level. Results
// index-match keys.
func (t *BST) GetMulti(keys []uint64) ([][]byte, []bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	err := readRetry(t.h, func() error {
		for i := range vals {
			vals[i], found[i] = nil, false
		}
		return runWalker(t.h, t.newGetWalker(keys, vals, found), nil)
	})
	t.pol.observe(t.h.Conn().Frontend().Stats())
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}
