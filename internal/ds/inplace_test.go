package ds

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
)

// inPlaceFigures is everything the simulator counts for a front-end: the
// verbs, their bytes, the cache's decisions, the log entries, the clock.
type inPlaceFigures struct {
	RDMARead, RDMAWrite, BytesRead, BytesWrite int64
	CacheHit, CacheMiss, CacheEvict, MemLogs   int64
	Clock                                      time.Duration
}

func figuresOf(fe *core.Frontend) inPlaceFigures {
	st := fe.Stats()
	return inPlaceFigures{
		RDMARead: st.RDMARead.Load(), RDMAWrite: st.RDMAWrite.Load(),
		BytesRead: st.BytesRead.Load(), BytesWrite: st.BytesWrite.Load(),
		CacheHit: st.CacheHit.Load(), CacheMiss: st.CacheMiss.Load(),
		CacheEvict: st.CacheEvict.Load(), MemLogs: st.MemLogs.Load(),
		Clock: fe.Clock().Now(),
	}
}

// inPlaceConn connects a front-end with the default latency profile, so the
// clock is part of what is pinned.
func inPlaceConn(t *testing.T, r *rig, mode core.Mode) *core.Conn {
	t.Helper()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: mode})
	c, err := fe.Connect(r.bk)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// inPlaceOps is the length of the pinned streams. The structure is drained
// every drainEvery operations: often enough that the overlay never reaches
// its prune threshold — what a read finds there must follow the operations,
// not how far the replayer has got — and seldom enough that reads do hit it.
const inPlaceOps = 600

// bptStream runs the B+Tree stream: ascending inserts (so 600 operations
// split the root and then an inner node), inserts in the middle, updates,
// sorted vector puts, gets of present and absent keys, scans — every result
// checked against a map.
func bptStream(t *testing.T, tr *BPTree, drainEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	want := map[uint64][]byte{}
	top := uint64(0)
	fresh := func() uint64 { top += 3; return top }
	old := func() uint64 { return 3 * (uint64(rng.Intn(int(top/3)+1)) + 1) }
	put := func(k uint64, v []byte) {
		if err := tr.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		want[k] = v
	}
	for i := 0; i < inPlaceOps; i++ {
		switch r := rng.Intn(12); {
		case r < 6:
			put(fresh(), val(i))
		case r == 6:
			put(old(), val(i))
		case r == 7:
			put(old()+1, val(i))
		case r == 8:
			keys := []uint64{fresh(), old(), fresh(), old() + 2, fresh(), fresh()}
			vals := make([][]byte, len(keys))
			for j, k := range keys {
				vals[j] = val(1000*i + j)
				want[k] = vals[j]
			}
			if err := tr.VectorPut(keys, vals); err != nil {
				t.Fatalf("vector put: %v", err)
			}
		case r < 11:
			k := old() + uint64(rng.Intn(3))
			v, ok, err := tr.Get(k)
			if w, present := want[k]; err != nil || ok != present || !bytes.Equal(v, w) {
				t.Fatalf("get %d: %q ok=%v err=%v, want %q present=%v", k, v, ok, err, w, present)
			}
		default:
			start := old()
			keys, vals, err := tr.Scan(start, 12)
			if err != nil {
				t.Fatalf("scan %d: %v", start, err)
			}
			for j, k := range keys {
				if k < start || j > 0 && k <= keys[j-1] || !bytes.Equal(vals[j], want[k]) {
					t.Fatalf("scan %d: entry %d is %d=%q, want %q", start, j, k, vals[j], want[k])
				}
			}
		}
		if (i+1)%drainEvery == 0 {
			if err := tr.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
	// Uncharged walk down the leftmost spine of the drained tree.
	h := tr.Handle()
	ep := h.Conn().Endpoint()
	node := make([]byte, bptNode)
	depth := 1
	for addr, err := ep.Load64Quiet(backend.AddrOff(h.RootAddr())); ; depth++ {
		if err == nil {
			err = ep.ReadQuiet(backend.AddrOff(addr), node)
		}
		if err != nil {
			t.Fatal(err)
		}
		if node[2] == 1 {
			break
		}
		addr = binary.LittleEndian.Uint64(node[bptPtrsOff:])
	}
	if depth < 3 {
		t.Fatalf("the stream built a tree %d deep: no inner node split", depth)
	}
}

// htStream runs the hash-table stream over 48 buckets, so chains are long:
// inserts, in-place updates, gets and multi-gets of present and absent keys,
// and — in the last third, after the last insert, so that no allocation can
// depend on when the lazy collector's host-time floor lets a freed node go —
// deletes from the head and the middle of chains.
func htStream(t *testing.T, ht *HashTable, drainEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	want := map[uint64][]byte{}
	var live []uint64
	top := uint64(0)
	anyKey := func() uint64 { return uint64(rng.Intn(int(top)+8)) + 1 }
	check := func(k uint64, v []byte, ok bool) {
		if w, present := want[k]; ok != present || !bytes.Equal(v, w) {
			t.Fatalf("key %d: %q ok=%v, want %q present=%v", k, v, ok, w, present)
		}
	}
	for i := 0; i < inPlaceOps; i++ {
		r := rng.Intn(10)
		switch inserting := i < 2*inPlaceOps/3; {
		case r < 4 && inserting:
			top++
			if err := ht.Put(top, val(i)); err != nil {
				t.Fatal(err)
			}
			want[top] = val(i)
			live = append(live, top)
		case r < 4:
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			removed, err := ht.Delete(k)
			if err != nil || !removed {
				t.Fatalf("delete %d: removed=%v err=%v", k, removed, err)
			}
			delete(want, k)
		case r < 6 && len(live) > 0:
			k := live[rng.Intn(len(live))]
			v := val(i)[:6+rng.Intn(9)]
			if err := ht.Put(k, v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		case r < 9:
			k := anyKey()
			v, ok, err := ht.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			check(k, v, ok)
		default:
			keys := make([]uint64, 6)
			for j := range keys {
				keys[j] = anyKey()
			}
			vals, found, err := ht.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			for j, k := range keys {
				check(k, vals[j], found[j])
			}
		}
		if (i+1)%drainEvery == 0 {
			if err := ht.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ht.Drain(); err != nil {
		t.Fatal(err)
	}
}

// htMultiKeys is the population of the multi-get stream: with 48 buckets,
// chains eight or nine nodes long.
const htMultiKeys = 400

// htMultiFootprint is what that table takes in a cache: its nodes and its
// bucket words.
const htMultiFootprint = htMultiKeys*(htHdr+64) + 48*8

// htMultiStream runs the multi-get stream: a populated table, then batches of
// eight keys — present and absent, some drawn twice — with an update or an
// insert after every fourth, so that batches also find units in the overlay.
func htMultiStream(t *testing.T, ht *HashTable, drainEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	want := map[uint64][]byte{}
	top := uint64(0)
	put := func(k uint64, v []byte) {
		if err := ht.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for top < htMultiKeys {
		top++
		put(top, val(int(top)))
		if top%uint64(drainEvery) == 0 {
			if err := ht.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := make([]uint64, 8)
	for i := 0; i < inPlaceOps/2; i++ {
		for j := range keys {
			keys[j] = uint64(rng.Intn(int(top+top/8))) + 1
		}
		vals, found, err := ht.GetMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range keys {
			if w, present := want[k]; found[j] != present || !bytes.Equal(vals[j], w) {
				t.Fatalf("batch %d key %d: %q found=%v, want %q present=%v", i, k, vals[j], found[j], w, present)
			}
		}
		switch i % 8 {
		case 3:
			put(uint64(rng.Intn(int(top)))+1, val(i)[:6+rng.Intn(9)])
		case 7:
			top++
			put(top, val(i))
		}
		if (i+1)%drainEvery == 0 {
			if err := ht.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ht.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceUnchanged: walking and patching unit images where they lie is a
// host-side change — every verb, byte, cache decision, log entry and clock
// tick of a fixed operation stream is what the copying structures produced.
// The figures were the copying structures', measured with this test, until
// write-through began to admit while the cache fills and the tail hints moved
// into the commit vector; re-measured then, each row at or below the old one
// on fabric reads and clock: 16 more bytes written and two atomic stores
// fewer per hint flush (the 21 of both hash-table rows, the 27 of bptree/RC;
// bptree/RCB64 commits too rarely to have one), fewer first reads of written
// units, and the 4 KB caches full — evicting — sooner.
func TestInPlaceUnchanged(t *testing.T) {
	o := Options{Create: testCreate, Buckets: 48}
	rows := []struct {
		name string
		mode core.Mode
		run  func(t *testing.T, c *core.Conn)
		want inPlaceFigures
	}{
		{"bptree/RC", core.ModeRC(4 << 10), func(t *testing.T, c *core.Conn) {
			tr, err := CreateBPTree(c, "inplace", o)
			if err != nil {
				t.Fatal(err)
			}
			bptStream(t, tr, 5)
		}, inPlaceFigures{RDMARead: 915, RDMAWrite: 471, BytesRead: 195232, BytesWrite: 197380, CacheHit: 1927, CacheMiss: 272, CacheEvict: 297, MemLogs: 2734, Clock: 3852780}},
		{"bptree/RCB64-pipe8", core.ModeRCB(8<<10, 64).WithPipeline(8), func(t *testing.T, c *core.Conn) {
			tr, err := CreateBPTree(c, "inplace", o)
			if err != nil {
				t.Fatal(err)
			}
			bptStream(t, tr, 150)
		}, inPlaceFigures{RDMARead: 179, RDMAWrite: 479, BytesRead: 57004, BytesWrite: 163362, CacheHit: 856, CacheMiss: 63, CacheEvict: 109, MemLogs: 2734, Clock: 1810092}},
		{"hashtable/R", core.ModeR(), func(t *testing.T, c *core.Conn) {
			ht, err := CreateHashTable(c, "inplace", o)
			if err != nil {
				t.Fatal(err)
			}
			htStream(t, ht, 32)
		}, inPlaceFigures{RDMARead: 2843, RDMAWrite: 362, BytesRead: 198176, BytesWrite: 56658, CacheHit: 0, CacheMiss: 0, CacheEvict: 0, MemLogs: 516, Clock: 7147871}},
		{"hashtable/RC", core.ModeRC(4 << 10), func(t *testing.T, c *core.Conn) {
			ht, err := CreateHashTable(c, "inplace", o)
			if err != nil {
				t.Fatal(err)
			}
			htStream(t, ht, 32)
		}, inPlaceFigures{RDMARead: 1504, RDMAWrite: 362, BytesRead: 112344, BytesWrite: 56658, CacheHit: 1339, CacheMiss: 1491, CacheEvict: 1437, MemLogs: 516, Clock: 4383812}},
	}
	// The multi-get rows were measured at the commit before HashTable.GetMulti
	// and Handle.ReadMulti began to walk and read in buffers their owners keep.
	htMulti := func(t *testing.T, c *core.Conn) {
		ht, err := CreateHashTable(c, "inplace", o)
		if err != nil {
			t.Fatal(err)
		}
		htMultiStream(t, ht, 32)
	}
	rows = append(rows, []struct {
		name string
		mode core.Mode
		run  func(t *testing.T, c *core.Conn)
		want inPlaceFigures
	}{
		{"hashtable/getmulti/RC-fits", core.ModeRC(2 * htMultiFootprint), htMulti, inPlaceFigures{RDMARead: 69, RDMAWrite: 496, BytesRead: 7872, BytesWrite: 93211, CacheHit: 16710, CacheMiss: 48, CacheEvict: 0, MemLogs: 913, Clock: 2932774}},
		{"hashtable/getmulti/RC-tenth", core.ModeRC(htMultiFootprint / 10), htMulti, inPlaceFigures{RDMARead: 15644, RDMAWrite: 496, BytesRead: 1196872, BytesWrite: 93211, CacheHit: 1135, CacheMiss: 15623, CacheEvict: 14766, MemLogs: 913, Clock: 35217229}},
		{"hashtable/getmulti/RCB64-pipe8", core.ModeRCB(htMultiFootprint/10, 64).WithPipeline(8), htMulti, inPlaceFigures{RDMARead: 4788, RDMAWrite: 518, BytesRead: 1196872, BytesWrite: 79173, CacheHit: 1135, CacheMiss: 15623, CacheEvict: 14766, MemLogs: 913, Clock: 12917461}},
	}...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := inPlaceConn(t, newRig(t), row.mode)
			row.run(t, c)
			if got := figuresOf(c.Frontend()); got != row.want {
				t.Fatalf("%d operations moved the simulator:\n got %#v\nwant %#v", inPlaceOps, got, row.want)
			}
		})
	}
}

// TestBPTreeSplitRewritesEvictedAncestor forces the hazard a put's
// copy-on-hit exists for. The cache holds three nodes and replaces at
// random, so a fetch below a node the descent found cached can evict it, and
// the next fetch is admitted into the entry — and the image buffer — the
// eviction handed back: the cache's view of the ancestor now holds another
// node's bytes. When the insert then splits its way up to that ancestor,
// the rewrite must start from the copy the descent took. The test counts the
// puts where exactly that happened — an ancestor cached before the put, gone
// after it, and rewritten by it — and checks the tree against a map. Patching
// through the cache's view instead fails it: the first such put corrupts the
// tree.
func TestBPTreeSplitRewritesEvictedAncestor(t *testing.T) {
	mode := core.ModeRC(3 * bptNode)
	mode.Policy = core.PolicyRR
	c := newRig(t).conn(1, mode)
	bt, err := CreateBPTree(c, "hazard", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	cache, memLogs := c.Frontend().Cache(), &c.Frontend().Stats().MemLogs
	want := map[uint64][]byte{}
	seen := map[uint64]bool{}   // every node address a descent has visited
	cached := map[uint64]bool{} // those of them the cache held before the put
	hazards, k := 0, uint64(0)
	for i := 0; i < 4000; i++ {
		for a := range seen {
			cached[a] = cache.Contains(a)
		}
		logs := memLogs.Load()
		k = (k + 2654435761) % 100003
		if err := bt.Put(k+1, val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[k+1] = val(i)
		// An insert logs the blob and the leaf at the least, and leaves in
		// t.node the topmost node it rewrote.
		for d := 0; memLogs.Load()-logs >= 2 && !bptIsLeaf(bt.path[d].img); d++ {
			l := &bt.path[d]
			if &bt.node.img[0] == &l.buf[0] && cached[l.addr] && !cache.Contains(l.addr) {
				hazards++
			}
		}
		for d := 0; ; d++ {
			seen[bt.path[d].addr] = true
			if bptIsLeaf(bt.path[d].img) {
				break
			}
		}
		// Drained, the next descent reads the cache and the fabric, not the
		// overlay.
		if i%3 == 0 {
			if err := bt.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hazards == 0 {
		t.Fatal("no put rewrote an ancestor that a fetch below it had evicted: the hazard was not exercised")
	}
	t.Logf("%d puts rewrote an ancestor evicted under them", hazards)
	if err := bt.Handle().VerifyOverlay(); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if v, ok, err := bt.Get(k); err != nil || !ok || !bytes.Equal(v, w) {
			t.Fatalf("get %d: %q ok=%v err=%v, want %q", k, v, ok, err, w)
		}
	}
}
