package ds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
)

// The structure-level half of the write-cost contract whose fabric half
// rdma.TestWriteVExactCost pins: an acknowledged write is one fabric
// round trip. Everything here runs on the default latency profile with
// the writer's working set warm (its own recent writes sit in the
// overlay), so the only verb an operation may issue is its commit flush.

// fabricNS is the virtual time the tracer's ledger attributes to the
// fabric: verb round trips, WR posting and retirement waits.
func fabricNS(self [trace.NumKinds]int64) int64 {
	return self[trace.KindVerbRead] + self[trace.KindVerbWrite] + self[trace.KindVerbAtomic] +
		self[trace.KindPost] + self[trace.KindRetireWait]
}

// rtCell is a traced writer front-end on the default profile.
func rtCell(t *testing.T, mode core.Mode) (*core.Conn, *trace.ActorTracer) {
	t.Helper()
	r := newRig(t)
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: mode, Tracer: trace.New()})
	c, err := fe.Connect(r.bk)
	if err != nil {
		t.Fatal(err)
	}
	return c, fe.Tracer()
}

// measure runs op and returns the counter delta and the fabric time.
func measure(t *testing.T, c *core.Conn, atr *trace.ActorTracer, op func() error) (stats.Snapshot, time.Duration) {
	t.Helper()
	st := c.Frontend().Stats()
	before, selfBefore := st.Snapshot(), atr.SelfNS()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return st.Snapshot().Sub(before), time.Duration(fabricNS(atr.SelfNS()) - fabricNS(selfBefore))
}

// wantOneWrite asserts the delta of one acknowledged write: exactly one
// write round trip, nothing else on the fabric, at exactly the cost of
// one write of the bytes sent (plus the posting cost when pipelined).
func wantOneWrite(t *testing.T, d stats.Snapshot, fabric time.Duration) {
	t.Helper()
	if d.RDMAWrite != 1 || d.RDMARead != 0 || d.RDMAAtomic != 0 {
		t.Fatalf("write=%d read=%d atomic=%d round trips, want exactly one write", d.RDMAWrite, d.RDMARead, d.RDMAAtomic)
	}
	prof := clock.DefaultProfile()
	want := prof.WriteCost(int(d.BytesWrite)) + time.Duration(d.PostedVerbs)*prof.WRIssue
	if fabric != want {
		t.Fatalf("fabric time %v, want exactly %v (one write of %d B, %d posted WRs)", fabric, want, d.BytesWrite, d.PostedVerbs)
	}
}

// rtWriter builds one structure and returns its unbatched write.
type rtWriter struct {
	name  string
	build func(c *core.Conn) (func(i int) error, error)
}

func rtWriters() []rtWriter {
	kv := func(name string, mk func(*core.Conn) (KV, error)) rtWriter {
		return rtWriter{name, func(c *core.Conn) (func(int) error, error) {
			s, err := mk(c)
			if err != nil {
				return nil, err
			}
			// Rewrite a small key set: every node on the path stays in the
			// writer's overlay.
			return func(i int) error { return s.Put(uint64(i%4), val(i)) }, nil
		}}
	}
	o := Options{Create: testCreate, Buckets: 256}
	return []rtWriter{
		{"Stack", func(c *core.Conn) (func(int) error, error) {
			s, err := CreateStack(c, "rt", o)
			return func(i int) error { return s.Push(val(i)) }, err
		}},
		{"Queue", func(c *core.Conn) (func(int) error, error) {
			q, err := CreateQueue(c, "rt", o)
			return func(i int) error { return q.Enqueue(val(i)) }, err
		}},
		kv("HashTable", func(c *core.Conn) (KV, error) { return CreateHashTable(c, "rt", o) }),
		kv("SkipList", func(c *core.Conn) (KV, error) { return CreateSkipList(c, "rt", o) }),
		kv("BST", func(c *core.Conn) (KV, error) { return CreateBST(c, "rt", o) }),
		kv("BPTree", func(c *core.Conn) (KV, error) { return CreateBPTree(c, "rt", o) }),
		kv("MVBST", func(c *core.Conn) (KV, error) { return CreateMVBST(c, "rt", o) }),
		kv("MVBPTree", func(c *core.Conn) (KV, error) { return CreateMVBPTree(c, "rt", o) }),
	}
}

func rtModes() map[string]core.Mode {
	return map[string]core.Mode{
		"R":        core.ModeR(),
		"RC":       core.ModeRC(1 << 20),
		"R/pipe8":  core.ModeR().WithPipeline(8),
		"RC/pipe8": core.ModeRC(1 << 20).WithPipeline(8),
	}
}

func TestUnbatchedWriteOneRoundTrip(t *testing.T) {
	for _, w := range rtWriters() {
		for mname, mode := range rtModes() {
			w, mode := w, mode
			t.Run(fmt.Sprintf("%s/%s", w.name, mname), func(t *testing.T) {
				c, atr := rtCell(t, mode)
				write, err := w.build(c)
				if err != nil {
					t.Fatal(err)
				}
				// Warm-up: the path nodes exist; few enough flushes that
				// neither the tail hints nor an overlay prune falls on the
				// measured one.
				i := 0
				for ; i < 6; i++ {
					if err := write(i); err != nil {
						t.Fatal(err)
					}
				}
				// An operation that refills the allocator's slab pays that
				// RPC on top of its write; the contract is the write path's,
				// so measure the next one (a slab holds several nodes).
				d, fabric := measure(t, c, atr, func() error { return write(i) })
				if d.RPCCalls > 0 {
					i++
					d, fabric = measure(t, c, atr, func() error { return write(i) })
				}
				wantOneWrite(t, d, fabric)
				if d.OpLogs != 1 || d.TxCommits != 1 {
					t.Fatalf("oplogs=%d txcommits=%d, want one op record under one commit", d.OpLogs, d.TxCommits)
				}
			})
		}
	}
}

func TestPutMultiOneRoundTrip(t *testing.T) {
	for mname, mode := range rtModes() {
		mode := mode
		t.Run(mname, func(t *testing.T) {
			c, atr := rtCell(t, mode)
			ht, err := CreateHashTable(c, "rt", Options{Create: testCreate, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]uint64, 8)
			vals := make([][]byte, 8)
			for i := range keys {
				keys[i], vals[i] = uint64(i), val(i)
			}
			if err := ht.PutMulti(keys, vals); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				vals[i] = val(100 + i)
			}
			d, fabric := measure(t, c, atr, func() error { return ht.PutMulti(keys, vals) })
			wantOneWrite(t, d, fabric)
			if d.OpLogs != 8 || d.TxCommits != 1 {
				t.Fatalf("oplogs=%d txcommits=%d, want 8 op records under one commit", d.OpLogs, d.TxCommits)
			}
			for i, k := range keys {
				if got, ok, err := ht.Get(k); err != nil || !ok || string(got) != string(vals[i]) {
					t.Fatalf("key %d after PutMulti: %q ok=%v err=%v", k, got, ok, err)
				}
			}
		})
	}
}

// TestBatchedPipelinedPostsPerOp guards the batched, pipelined cell: its
// op records are persisted one posted WR per operation, overlapped with
// the operation, and no commit goes out before the batch quota.
func TestBatchedPipelinedPostsPerOp(t *testing.T) {
	c, atr := rtCell(t, core.ModeRCB(1<<20, 64).WithPipeline(8))
	bt, err := CreateBPTree(c, "rt", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := bt.Put(uint64(i%4), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := measure(t, c, atr, func() error {
		for i := 8; i < 16; i++ {
			if err := bt.Put(uint64(i%4), val(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if d.OpLogs != 8 || d.PostedVerbs != 8 || d.DoorbellGroups != 8 || d.RDMAWrite != 8 || d.TxCommits != 0 {
		t.Fatalf("8 batched puts: oplogs=%d posted=%d doorbells=%d writes=%d txcommits=%d, want 8/8/8/8/0",
			d.OpLogs, d.PostedVerbs, d.DoorbellGroups, d.RDMAWrite, d.TxCommits)
	}
}

// The read half of the contract: how many fabric reads one operation costs
// on a front-end that has never seen the structure (cold cache, empty
// overlay). The structure is 4 096 keys drawn with a fixed seed, built and
// drained by another front-end, so every count below is exact and a
// function of that seed alone; a row that moves is a change to that
// structure's gather path.

const coldKeys = 4096

// coldKeySet returns the populated keys and, from the same permutation,
// keys that are absent.
func coldKeySet() (present, absent []uint64) {
	perm := rand.New(rand.NewSource(16)).Perm(2 * coldKeys)
	for i, k := range perm {
		if i < coldKeys {
			present = append(present, uint64(k)+1)
		} else {
			absent = append(absent, uint64(k)+1)
		}
	}
	return present, absent
}

type coldKV interface {
	KV
	Close() error
}

type coldRow struct {
	name   string
	create func(c *core.Conn, o Options) (coldKV, error)
	open   func(c *core.Conn, o Options) (coldKV, error)
	// Fabric reads of one cold operation (an insert's include one for its
	// front-end's first slab RPC). A cold skip-list search has no anchor
	// and starts at the head; it stops at the level where it finds the key
	// (the hit key's tower is 3 high: found 6 nodes before level 0).
	getHit, getMiss, insert, update int64
}

func coldRows() []coldRow {
	return []coldRow{
		{"SkipList",
			func(c *core.Conn, o Options) (coldKV, error) { return CreateSkipList(c, "cold", o) },
			func(c *core.Conn, o Options) (coldKV, error) { return OpenSkipList(c, "cold", true, o) },
			14, 17, 18, 14},
		{"BST",
			func(c *core.Conn, o Options) (coldKV, error) { return CreateBST(c, "cold", o) },
			func(c *core.Conn, o Options) (coldKV, error) { return OpenBST(c, "cold", true, o) },
			8, 14, 15, 8},
		{"BPTree",
			func(c *core.Conn, o Options) (coldKV, error) { return CreateBPTree(c, "cold", o) },
			func(c *core.Conn, o Options) (coldKV, error) { return OpenBPTree(c, "cold", true, o) },
			5, 4, 6, 4},
		{"HashTable",
			func(c *core.Conn, o Options) (coldKV, error) { return CreateHashTable(c, "cold", o) },
			func(c *core.Conn, o Options) (coldKV, error) { return OpenHashTable(c, "cold", true, o) },
			4, 7, 8, 4},
	}
}

// coldBuild populates row's structure on r and releases the writer lock.
func coldBuild(t *testing.T, r *rig, row coldRow, o Options) {
	t.Helper()
	s, err := row.create(r.conn(1, core.ModeRC(1<<20)), o)
	if err != nil {
		t.Fatal(err)
	}
	present, _ := coldKeySet()
	for _, k := range present {
		if err := s.Put(k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// coldOp opens the structure as the writer of a fresh front-end, runs op
// on it and returns the fabric reads op cost.
func coldOp(t *testing.T, r *rig, id uint16, row coldRow, o Options, op func(s coldKV) error) int64 {
	t.Helper()
	c := r.conn(id, core.ModeRC(1<<20))
	s, err := row.open(c, o)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Frontend().Stats()
	before := st.RDMARead.Load()
	if err := op(s); err != nil {
		t.Fatal(err)
	}
	reads := st.RDMARead.Load() - before
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return reads
}

func TestColdReadTrips(t *testing.T) {
	present, absent := coldKeySet()
	hit, miss := present[104], absent[104]
	o := Options{Create: testCreate, Buckets: 1024}
	for _, row := range coldRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			r := newRig(t)
			coldBuild(t, r, row, o)
			get := func(k uint64, want bool) func(coldKV) error {
				return func(s coldKV) error {
					v, ok, err := s.Get(k)
					if err == nil && (ok != want || ok && string(v) != string(val(int(k)))) {
						err = fmt.Errorf("get %d = %q, %v", k, v, ok)
					}
					return err
				}
			}
			put := func(k uint64) func(coldKV) error {
				return func(s coldKV) error { return s.Put(k, val(int(k))) }
			}
			got := [4]int64{
				coldOp(t, r, 2, row, o, get(hit, true)),
				coldOp(t, r, 3, row, o, get(miss, false)),
				coldOp(t, r, 4, row, o, put(miss)),
				coldOp(t, r, 5, row, o, put(hit)),
			}
			want := [4]int64{row.getHit, row.getMiss, row.insert, row.update}
			if got != want {
				t.Fatalf("cold fabric reads {get hit, get miss, insert, update} = %v, want %v", got, want)
			}
		})
	}
}

// TestSkipListAnchorTrips pins what the cached headers buy on a warm
// front-end. A key whose header is cached is found without a descent: a get
// pays the one read of the unit its value is in, an update the same read
// (the overlay takes whole units). An absent key between two cached
// neighbours costs the read of its anchor and nothing else — every
// successor the walk meets answers "too large" from the cache. And an
// insert behind a predecessor known only by its header reads that unit
// whole before rewriting it — so the predecessor's value and links survive.
func TestSkipListAnchorTrips(t *testing.T) {
	present, _ := coldKeySet()
	hit := present[104] // tower height 3
	after := hit + 1    // absent: its anchor is hit
	for _, k := range present {
		if k == after {
			t.Fatalf("key %d is populated; pick another hit key", after)
		}
	}
	o := Options{Create: testCreate}
	r := newRig(t)
	row := coldRows()[0]
	coldBuild(t, r, row, o)
	c := r.conn(2, core.ModeRC(1<<20))
	sl, err := OpenSkipList(c, "cold", true, o)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Frontend().Stats()
	reads := func(op func() error) int64 {
		t.Helper()
		before := st.Snapshot()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		d := st.Snapshot().Sub(before)
		if d.CacheEvict != 0 {
			t.Fatalf("%d evictions from a cache that holds every header", d.CacheEvict)
		}
		return d.RDMARead
	}
	get := func(k uint64, want []byte) func() error {
		return func() error {
			v, ok, err := sl.Get(k)
			if err == nil && (ok != (want != nil) || string(v) != string(want)) {
				err = fmt.Errorf("get %d = %q, %v; want %q", k, v, ok, want)
			}
			return err
		}
	}
	cold := reads(get(hit, val(int(hit))))
	warm := reads(get(hit, val(int(hit))))
	// The first walk behind hit reads it and the successor at each of its
	// three levels; all four are cached headers afterwards.
	walk := reads(get(after, nil))
	between := reads(get(after, nil))
	update := reads(func() error { return sl.Put(hit, val(1)) })
	if err := sl.Drain(); err != nil { // retire the overlay: hit is known by its header alone again
		t.Fatal(err)
	}
	if _, _, img, err := sl.descend(hit, nil); err != nil || len(img) != slHdr {
		t.Fatalf("the writer sees key %d as %d bytes (err %v), want its cached header", hit, len(img), err)
	}
	insert := reads(func() error { return sl.Put(after, val(2)) })
	got := [6]int64{cold, warm, walk, between, update, insert}
	// The insert draws height 1, so its anchor is its only predecessor: one
	// read of that unit, and — this front-end's first allocation — one for
	// the slab RPC's response.
	if want := [6]int64{14, 1, 4, 1, 1, 2}; got != want {
		t.Fatalf("fabric reads {cold get, warm get, first get behind it, absent between cached neighbours, update, insert behind a header} = %v, want %v", got, want)
	}
	if err := get(hit, val(1))(); err != nil {
		t.Fatalf("predecessor rewritten behind its header lost its value: %v", err)
	}
	if err := get(after, val(2))(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListReaderAnchorsOutliveEpochs: a reader's cached headers stay
// valid when the writer moves the seqlock — a node never moves, so the
// header still names it — and cost the reader no freshness: everything but
// the key comes from a read of the unit itself. Beside a writer the reader
// keeps paying one read for a cached key, sees the value the writer just
// put there, and finds a node the writer linked in behind its anchor.
func TestSkipListReaderAnchorsOutliveEpochs(t *testing.T) {
	present, _ := coldKeySet()
	hit, after := present[104], present[104]+1
	o := Options{Create: testCreate}
	r := newRig(t)
	coldBuild(t, r, coldRows()[0], o)
	w, err := OpenSkipList(r.conn(2, core.ModeRC(1<<20)), "cold", true, o)
	if err != nil {
		t.Fatal(err)
	}
	c := r.conn(3, core.ModeRC(1<<20))
	rd, err := OpenSkipList(c, "cold", false, o)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Frontend().Stats()
	get := func(k uint64, want []byte, wantReads int64) {
		t.Helper()
		before := st.RDMARead.Load()
		v, ok, err := rd.Get(k)
		if err != nil || ok != (want != nil) || string(v) != string(want) {
			t.Fatalf("reader get %d = %q, %v (err %v); want %q", k, v, ok, err, want)
		}
		if got := st.RDMARead.Load() - before; wantReads >= 0 && got != wantReads {
			t.Fatalf("reader get %d cost %d node reads, want %d", k, got, wantReads)
		}
	}
	get(hit, val(int(hit)), -1) // cold
	get(after, nil, -1)         // admits hit's successors
	get(after, nil, 1)
	for i, put := range []struct {
		key  uint64
		want func()
	}{
		{hit, func() { get(hit, val(1000), 1) }},       // updated in place: one read, the new value
		{after, func() { get(after, val(1001), 2) }},   // linked in behind the anchor: the anchor, then the node
		{hit + 2, func() { get(after, val(1001), 1) }}, // and now cached itself
	} {
		if err := w.Put(put.key, val(1000+i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Drain(); err != nil { // replayed: the seqlock has moved
			t.Fatal(err)
		}
		put.want()
	}
}

// slOps runs n operations of a fixed 90/10 get/put stream on sl, draining
// every drainEvery of them (0: never).
func slOps(t *testing.T, sl *SkipList, n, drainEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= n; i++ {
		k := uint64(rng.Intn(2*coldKeys)) + 1
		var err error
		if rng.Intn(10) == 0 {
			err = sl.Put(k, val(i))
		} else {
			_, _, err = sl.Get(k)
		}
		if err == nil && drainEvery > 0 && i%drainEvery == 0 {
			err = sl.Drain()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkipListReadPathDeterministic: what the skip list caches is a
// function of the operation stream. Two readers running one seed agree on
// every fabric read, hit, eviction and the virtual clock. Two writers
// running one seed, one of them draining every 64 operations so that its
// overlay is retired at other points, agree on every eviction and on the
// set of cached nodes — their fabric reads and clocks may differ, since a
// read the overlay serves in one is a fabric read in the other. The cache
// is far too small for the list, so both runs evict throughout. Part of
// `make determinism` (GOMAXPROCS 1, 2, 8).
func TestSkipListReadPathDeterministic(t *testing.T) {
	const ops = 8192
	o := Options{Create: testCreate}
	open := func(writer bool) (*core.Frontend, *SkipList) {
		r := newRig(t)
		coldBuild(t, r, coldRows()[0], o)
		fe := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeRC(8 << 10)})
		c, err := fe.Connect(r.bk)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := OpenSkipList(c, "cold", writer, o)
		if err != nil {
			t.Fatal(err)
		}
		return fe, sl
	}
	type outcome struct {
		reads, hits, evicts int64
		clock               time.Duration
	}
	reader := func() outcome {
		fe, sl := open(false)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < ops; i++ {
			if _, _, err := sl.Get(uint64(rng.Intn(2*coldKeys)) + 1); err != nil {
				t.Fatal(err)
			}
		}
		s := fe.Stats().Snapshot()
		return outcome{s.RDMARead, s.CacheHit, s.CacheEvict, fe.Clock().Now()}
	}
	if a, b := reader(), reader(); a != b {
		t.Fatalf("same seed, different reader runs:\n  %+v\n  %+v", a, b)
	} else if a.evicts == 0 {
		t.Fatalf("%+v: the run was meant to overflow the cache", a)
	}

	// writer returns the evictions and, walking the bottom level, which of
	// the list's nodes are cached.
	writer := func(drainEvery int) (int64, []uint64) {
		fe, sl := open(true)
		slOps(t, sl, ops, drainEvery)
		evicts := fe.Stats().CacheEvict.Load()
		var cached []uint64
		for addr := sl.head; addr != 0; {
			unit, err := sl.h.Read(addr, sl.nodeSize(), false)
			if err != nil {
				t.Fatal(err)
			}
			if fe.Cache().Contains(addr) {
				cached = append(cached, addr)
			}
			addr = slNext(unit, 0)
		}
		return evicts, cached
	}
	evA, setA := writer(0)
	evB, setB := writer(64)
	if evA != evB || !slices.Equal(setA, setB) {
		t.Fatalf("one seed, drained at different points: %d evictions and %d cached nodes, against %d and %d", evA, len(setA), evB, len(setB))
	}
	if evA == 0 || len(setA) == 0 {
		t.Fatalf("%d evictions, %d cached nodes: the run was meant to overflow the cache", evA, len(setA))
	}
}

// TestSkipListNoCacheUnchanged: without a cache there are no anchors and no
// new charges — the descent from the head of PR 16, read for read and clock
// for clock. The figures are PR 16's for this operation stream (each put
// drained, so no read depends on how far the replayer has got), but for the
// clock: a put's commit now carries the tail hints its flush used to pay two
// atomic stores for, every sixteenth time.
func TestSkipListNoCacheUnchanged(t *testing.T) {
	o := Options{Create: testCreate}
	r := newRig(t)
	coldBuild(t, r, coldRows()[0], o)
	fe := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeR()})
	c, err := fe.Connect(r.bk)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := OpenSkipList(c, "cold", true, o)
	if err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	reads0, clk0 := st.RDMARead.Load(), fe.Clock().Now()
	rng := rand.New(rand.NewSource(18))
	key := func() uint64 { return uint64(rng.Intn(2*coldKeys)) + 1 }
	for i := 0; i < 400; i++ {
		switch rng.Intn(8) {
		case 0:
			if err = sl.Put(key(), val(i)); err == nil {
				err = sl.Drain()
			}
		case 1:
			keys := make([]uint64, 6)
			for j := range keys {
				keys[j] = key()
			}
			_, _, err = sl.GetMulti(keys)
		default:
			_, _, err = sl.Get(key())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	reads, clk := st.RDMARead.Load()-reads0, fe.Clock().Now()-clk0
	const wantReads, wantClock = 9645, 21959503 * time.Nanosecond
	if reads != wantReads || clk != wantClock {
		t.Fatalf("400 operations without a cache: %d fabric reads in %v (%d ns), want %d in %v", reads, clk, clk.Nanoseconds(), wantReads, wantClock)
	}
}
