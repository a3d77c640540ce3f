package ds

import (
	"fmt"
	"math/rand"
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
	// front-end's first slab RPC). BST, B+Tree and HashTable are pinned at
	// what they cost before the skip list's cache images became towers; the
	// skip list's get hit and update were 20 when every descent ran to
	// level 0 (the hit key's tower is 3 high: found 6 nodes early).
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

// TestSkipListTowerTrips pins what the tower images change on a warm
// front-end. A node reached through a level-L pointer is taller than L, so
// a descent that ends at level 2 meets only admitted towers: repeated, it
// costs no fabric read but the one for the value its tower image lacks; an
// in-place update does not need even that (the value is being replaced);
// and an insert behind a predecessor seen only as a tower re-reads that
// unit before rewriting it — so the predecessor's value survives.
func TestSkipListTowerTrips(t *testing.T) {
	present, _ := coldKeySet()
	hit := present[104] // tower height 3: admitted
	after := hit + 1    // absent: its level-0 predecessor is hit
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
			t.Fatalf("%d evictions from a cache that holds every tower", d.CacheEvict)
		}
		return d.RDMARead
	}
	get := func(k uint64, want []byte) func() error {
		return func() error {
			v, ok, err := sl.Get(k)
			if err == nil && (!ok || string(v) != string(want)) {
				err = fmt.Errorf("get %d = %q, %v; want %q", k, v, ok, want)
			}
			return err
		}
	}
	cold := reads(get(hit, val(int(hit))))
	used := c.Frontend().Cache().Used()
	warm := reads(get(hit, val(int(hit))))
	if c.Frontend().Cache().Used() != used {
		t.Fatalf("a descent over cached towers changed the cached bytes: %d -> %d", used, c.Frontend().Cache().Used())
	}
	update := reads(func() error { return sl.Put(hit, val(1)) })
	if err := sl.Drain(); err != nil { // retire the overlay: hit is a cached tower again
		t.Fatal(err)
	}
	if _, img, err := sl.descend(hit, nil); err != nil || len(img) != slTower(3) {
		t.Fatalf("the writer sees key %d as %d bytes (err %v), want its 3-high tower", hit, len(img), err)
	}
	walk := reads(func() error {
		_, ok, err := sl.Get(after)
		if ok {
			err = fmt.Errorf("key %d found before its insert", after)
		}
		return err
	})
	insert := reads(func() error { return sl.Put(after, val(2)) })
	got := [5]int64{cold, warm, update, walk, insert}
	// The walk to level 0 meets one more tall node, admitted on the way,
	// and two short ones. The insert re-reads the short two, reads its one
	// tower-only predecessor whole, and, being this front-end's first
	// allocation, pays one read for the slab RPC's response.
	if want := [5]int64{14, 1, 0, 3, 4}; got != want {
		t.Fatalf("fabric reads {cold get, warm get, warm update, warm get miss, insert behind a tower} = %v, want %v", got, want)
	}
	if err := get(hit, val(1))(); err != nil {
		t.Fatalf("predecessor rewritten from a tower image lost its value: %v", err)
	}
	if err := get(after, val(2))(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListReadPathDeterministic: the admission height is a function of
// the operation count and the cache counters, and those of the seed — two
// runs of one seed agree on every fabric read, eviction, the final height
// and the reader's virtual clock. The cache is far too small for the
// starting height, so the run includes the policy moving. Part of `make
// determinism` (GOMAXPROCS 1, 2, 8).
func TestSkipListReadPathDeterministic(t *testing.T) {
	type outcome struct {
		reads, hits, evicts int64
		level               int
		clock               time.Duration
	}
	run := func() outcome {
		r := newRig(t)
		o := Options{Create: testCreate}
		coldBuild(t, r, coldRows()[0], o)
		fe := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeRC(8 << 10)})
		c, err := fe.Connect(r.bk)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := OpenSkipList(c, "cold", false, o)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 8*levelPolicyWindow; i++ {
			k := uint64(rng.Intn(2*coldKeys)) + 1
			if _, _, err := sl.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		s := fe.Stats().Snapshot()
		return outcome{s.RDMARead, s.CacheHit, s.CacheEvict, sl.pol.Level(), fe.Clock().Now()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different runs:\n  %+v\n  %+v", a, b)
	}
	if a.evicts == 0 || a.level == SkipListMaxLevel-towerPolicyStart {
		t.Fatalf("%+v: the run was meant to overflow the cache and move the admission height", a)
	}
}
