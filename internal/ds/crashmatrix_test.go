package ds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
	"asymnvm/internal/trace"
)

// The crash-point matrix: for every data structure, enumerate the
// persistence steps of one probe operation — every fault-hook consult of
// a write-class verb: 8-byte stores, atomics, and each SEGMENT of an RDMA
// write — then crash the back-end at each step in turn — power failure
// included, with the dying segment torn mid-transfer — recover, and
// assert the structure-specific invariants:
//
//   - everything drained before the probe survives byte-for-byte;
//   - the probe operation is all-or-nothing (present with the exact
//     value, or absent — never mangled);
//   - ordering invariants hold (LIFO pops, FIFO dequeues, sorted scans).
//
// A commit flush is one write verb whose op-log segments are sealed ahead
// of its commit-record segments, so dying at a later segment of a write
// is the §7.2 Case 2.c window: the op record is durable, the memory logs
// are not. Those points are exercised torn AND lost (no byte of the
// commit segment arrives), and there the invariant tightens: recovery —
// BreakLock, reopen, ReplayPending — must re-execute the sealed
// operation, so the probe is present, not merely unmangled.
//
// The enumeration leans on the fault hook seeing the identical
// deterministic verb sequence (zero-cost profile, batch 1, no pipeline)
// that a fresh identically-seeded instance produces.

// verifyOverlays fails the test if a unit in any of the handles' overlays
// differs from what the replayer made of its logs (core.Handle.VerifyOverlay):
// a byte some put — the cell's seeding, its probe, or recovery's
// re-execution of it — changed without logging it. Run before Drain, which
// retires the overlay.
func verifyOverlays(t *testing.T, hs ...*core.Handle) {
	t.Helper()
	for _, h := range hs {
		if err := h.VerifyOverlay(); err != nil {
			t.Fatal(err)
		}
	}
}

// crashCase describes one structure's row in the matrix.
type crashCase struct {
	name string
	// cache is the probing front-end's DRAM cache (0: none, plain ModeR).
	cache int64
	build func(t *testing.T, c *core.Conn) func() error // create+seed+drain; returns the probe op
	// check reopens as writer, drains and verifies the invariants. sealed
	// is how many of the probe's operations (in order) had their op record
	// sealed before the crash and must therefore have been re-executed.
	check func(t *testing.T, c *core.Conn, sealed int)
}

// crashPoint is one cell of a row: kill the probe's k-th write-class
// consult.
type crashPoint struct {
	k      int
	lost   bool // the dying write leaves no bytes behind (else: torn at half)
	sealed int  // probe operations whose op record this write sealed first
}

// writeClass reports whether a verb persists state on the back-end.
func writeClass(op rdma.Op) bool {
	switch op {
	case rdma.OpWrite, rdma.OpStore64, rdma.OpCAS, rdma.OpFetchAdd:
		return true
	}
	return false
}

func crashOpts() Options {
	return Options{Create: testCreate, Buckets: 256}
}

// newCrashCell builds a fresh device+back-end+writer front-end. tr may
// be nil (only the counting pass traces).
func newCrashCell(t *testing.T, tc crashCase, tr *trace.Tracer) (*nvm.Device, *backend.Backend, *core.Conn) {
	t.Helper()
	mode := core.ModeR()
	if tc.cache > 0 {
		mode = core.ModeRC(tc.cache)
	}
	dev := nvm.NewDevice(64 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: mode, Profile: &zprof, Tracer: tr})
	conn, err := fe.Connect(bk)
	if err != nil {
		bk.Stop()
		t.Fatal(err)
	}
	return dev, bk, conn
}

// probeCrashPoints runs the probe on a throwaway traced instance and
// returns its crash points: every write-class consult torn, plus every
// consult of a later segment of a write lost as well. A consult belongs
// to the verb whose counter increment preceded it, which is how segments
// are told from verbs. The trace's span ledger is cross-checked against
// the verb counters: both enumerate the same round trips, however many
// segments (consults) each carries. No log of these cells ever wraps, so
// a write's first segment is its whole op group.
func probeCrashPoints(t *testing.T, tc crashCase) []crashPoint {
	t.Helper()
	tr := trace.New()
	_, bk, conn := newCrashCell(t, tc, tr)
	defer bk.Stop()
	probe := tc.build(t, conn)
	atr := conn.Frontend().Tracer()
	st := conn.Frontend().Stats()
	preSpans := len(atr.Spans())
	verbs := func() int64 { return st.RDMAWrite.Load() + st.RDMAAtomic.Load() }
	preVerbs := verbs()
	var points []crashPoint
	k, sealed, lastVerb := 0, 0, preVerbs
	conn.Endpoint().SetFault(func(op rdma.Op, off uint64, sz int) rdma.Fault {
		v := verbs()
		first := v != lastVerb
		lastVerb = v
		if !writeClass(op) {
			return rdma.Fault{}
		}
		k++
		if first {
			points = append(points, crashPoint{k: k, sealed: sealed})
			return rdma.Fault{}
		}
		sealed++
		points = append(points,
			crashPoint{k: k, sealed: sealed},
			crashPoint{k: k, sealed: sealed, lost: true})
		return rdma.Fault{}
	})
	if err := probe(); err != nil {
		t.Fatalf("counting pass probe failed: %v", err)
	}
	conn.Endpoint().SetFault(nil)
	var spanVerbs int64
	for _, sp := range atr.Spans()[preSpans:] {
		switch sp.Kind {
		case trace.KindVerbWrite, trace.KindVerbAtomic:
			spanVerbs++
		}
	}
	if got := verbs() - preVerbs; spanVerbs != got {
		t.Fatalf("trace recorded %d write/atomic verb spans during the probe, the counters %d verbs", spanVerbs, got)
	}
	if sealed == 0 {
		t.Fatal("probe issued no multi-segment write: the op-sealed/commit-lost window is not exercised")
	}
	return points
}

// runCrashPoint rebuilds the cell, kills the connection at the probe's
// k-th write-class consult (torn mid-transfer for bulk writes, unless the
// point says lost), power-fails the device, recovers, and verifies.
func runCrashPoint(t *testing.T, tc crashCase, cp crashPoint) {
	t.Helper()
	k := cp.k
	dev, bk, conn := newCrashCell(t, tc, nil)
	stopped := false
	defer func() {
		if !stopped {
			bk.Stop()
		}
	}()
	probe := tc.build(t, conn)
	seen := 0
	dead := false
	conn.Endpoint().SetFault(func(op rdma.Op, off uint64, sz int) rdma.Fault {
		if dead {
			// A disconnected front-end stays disconnected: every later verb
			// of the dying operation fails too, so a path that tolerates one
			// lost advisory write (e.g. tail hints) still can't limp through.
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		if !writeClass(op) {
			return rdma.Fault{}
		}
		seen++
		if seen != k {
			return rdma.Fault{}
		}
		dead = true
		f := rdma.Fault{Err: rdma.ErrDisconnected}
		if op == rdma.OpWrite && !cp.lost {
			f.Truncate = sz / 2 // the dying write reaches the device torn
		}
		return f
	})
	if err := probe(); err == nil {
		t.Fatalf("crash point %+v: probe succeeded despite fatal fault", cp)
	} else if !errors.Is(err, rdma.ErrDisconnected) {
		t.Fatalf("crash point %+v: probe failed with %v, want ErrDisconnected", cp, err)
	}

	// The node dies with the connection: stop it and lose volatile bytes.
	bk.Stop()
	stopped = true
	dev.Crash(nil)

	bk2, err := backend.New(dev, backend.Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatalf("crash point %+v: recovery: %v", cp, err)
	}
	bk2.Start()
	defer bk2.Stop()
	fe2 := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeR(), Profile: &zprof})
	conn2, err := fe2.Connect(bk2)
	if err != nil {
		t.Fatalf("crash point %+v: reconnect: %v", cp, err)
	}
	raw, err := conn2.Open(tc.name, true)
	if err != nil {
		t.Fatalf("crash point %+v: raw open: %v", cp, err)
	}
	if err := raw.BreakLock(1); err != nil {
		t.Fatalf("crash point %+v: break lock: %v", cp, err)
	}
	tc.check(t, conn2, cp.sealed)
}

func TestCrashPointMatrix(t *testing.T) {
	cases := []crashCase{
		stackCrashCase(),
		queueCrashCase(),
		kvCrashCase("HashTable"),
		kvCrashCase("SkipList"),
		anchorCrashCase(),
		kvCrashCase("BST"),
		kvCrashCase("BPTree"),
		kvCrashCase("MVBST"),
		kvCrashCase("MVBPTree"),
		rangedTxCrashCase(),
		partitionedCrashCase(),
		stripedCrashCase(),
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			points := probeCrashPoints(t, tc)
			for _, cp := range points {
				runCrashPoint(t, tc, cp)
			}
			t.Logf("%s: %d crash points survived", tc.name, len(points))
		})
	}
}

// ---- truncation-phase rows (compaction plane) ----
//
// With compaction on, the back-end's crash surface gains phases of its
// own: lazily applied entries that were never checkpointed, a torn
// checkpoint record in either of the two slots, and a crash between
// reclaiming dead log pages and advancing the truncation points. Each
// phase is exercised against the same per-structure invariants as the
// verb matrix: seeds survive byte-for-byte, the probe operation stays
// all-or-nothing, ordering invariants hold.

// newCompactCell builds a device+back-end+writer cell with compaction on.
func newCompactCell(t *testing.T, interval uint64, hook func(backend.CkptEvent) backend.CkptAction) (*nvm.Device, *backend.Backend, *core.Conn) {
	t.Helper()
	dev := nvm.NewDevice(64 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &zprof,
		Compact: &backend.CompactConfig{Interval: interval}, CheckpointHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: &zprof})
	conn, err := fe.Connect(bk)
	if err != nil {
		bk.Stop()
		t.Fatal(err)
	}
	return dev, bk, conn
}

// recoverCompactCell power-fails dev (reverting the volatile window in
// rng order), recovers a fresh compacting back-end on it, and runs the
// row's invariant check through a new writer front-end.
func recoverCompactCell(t *testing.T, dev *nvm.Device, bk *backend.Backend, tc crashCase, rng *rand.Rand) {
	t.Helper()
	bk.Halt()
	dev.Crash(rng)
	bk2, err := backend.New(dev, backend.Options{ID: 0, Profile: &zprof,
		Compact: &backend.CompactConfig{Interval: 4 << 10}})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	bk2.Start()
	defer bk2.Stop()
	fe2 := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeR(), Profile: &zprof})
	conn2, err := fe2.Connect(bk2)
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	raw, err := conn2.Open(tc.name, true)
	if err != nil {
		t.Fatalf("raw open: %v", err)
	}
	if err := raw.BreakLock(1); err != nil {
		t.Fatalf("break lock: %v", err)
	}
	tc.check(t, conn2, 0)
}

// TestTruncationCrashMidApply power-fails every structure while its probe
// sits lazily applied but never checkpointed: the whole volatile window
// (applied entries, volatile cursors) reverts in random order, and
// recovery must rebuild the state from the untouched log alone.
func TestTruncationCrashMidApply(t *testing.T) {
	cases := []crashCase{
		stackCrashCase(),
		queueCrashCase(),
		kvCrashCase("HashTable"),
		kvCrashCase("SkipList"),
		kvCrashCase("BST"),
		kvCrashCase("BPTree"),
		kvCrashCase("MVBST"),
		kvCrashCase("MVBPTree"),
		rangedTxCrashCase(),
		partitionedCrashCase(),
		stripedCrashCase(),
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// An unreachable interval: nothing ever checkpoints, so every
			// application stays in the device's volatile window.
			dev, bk, conn := newCompactCell(t, 1<<30, nil)
			probe := tc.build(t, conn)
			if err := probe(); err != nil {
				t.Fatalf("probe: %v", err)
			}
			recoverCompactCell(t, dev, bk, tc, rand.New(rand.NewSource(42)))
		})
	}
}

// TestTruncationCrashCheckpointPhases tears the checkpoint procedure
// itself: mid-record-write into each of the two slots (the torn record
// must be rejected and the older slot win), and mid-reclaim (pages
// scrubbed under a record whose truncation points never advanced). Rows
// are limited to structures whose probe can repeat idempotently — the
// repeats force fresh replay progress until a checkpoint of the wanted
// slot parity fires.
func TestTruncationCrashCheckpointPhases(t *testing.T) {
	phases := []struct {
		name   string
		phase  backend.CkptPhase
		parity uint64
	}{
		{"write-slotA", backend.CkptPhaseWrite, 0},
		{"write-slotB", backend.CkptPhaseWrite, 1},
		{"reclaim", backend.CkptPhaseReclaim, 0},
	}
	cases := []crashCase{
		kvCrashCase("HashTable"),
		kvCrashCase("SkipList"),
		kvCrashCase("BST"),
		kvCrashCase("BPTree"),
		kvCrashCase("MVBST"),
		kvCrashCase("MVBPTree"),
		partitionedCrashCase(),
		stripedCrashCase(),
	}
	for _, ph := range phases {
		ph := ph
		t.Run(ph.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					var armed, fired atomic.Bool
					hook := func(ev backend.CkptEvent) backend.CkptAction {
						if !armed.Load() || fired.Load() {
							return backend.CkptProceed
						}
						if ev.Phase != ph.phase || ev.Seq%2 != ph.parity {
							return backend.CkptProceed
						}
						fired.Store(true)
						return backend.CkptCrash
					}
					// Interval 1: any applied progress triggers a
					// checkpoint attempt on the next kick.
					dev, bk, conn := newCompactCell(t, 1, hook)
					probe := tc.build(t, conn)
					armed.Store(true)
					for i := 0; i < 200 && !fired.Load(); i++ {
						if err := probe(); err != nil {
							t.Fatalf("probe repeat %d: %v", i, err)
						}
						time.Sleep(2 * time.Millisecond)
					}
					if !fired.Load() {
						t.Fatalf("no %s checkpoint with seq parity %d fired within the probe budget", ph.name, ph.parity)
					}
					recoverCompactCell(t, dev, bk, tc, rand.New(rand.NewSource(43)))
				})
			}
		})
	}
}

// ---- per-structure rows ----

const crashSeedItems = 5

func crashVal(i int) []byte { return []byte(fmt.Sprintf("seed-%03d", i)) }

var probeVal = []byte("probe-value-xyz")

func stackCrashCase() crashCase {
	return crashCase{
		name: "Stack",
		build: func(t *testing.T, c *core.Conn) func() error {
			s, err := CreateStack(c, "Stack", crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				if err := s.Push(crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, s.Handle())
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			return func() error { return s.Push(probeVal) }
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			s, err := OpenStack(c, "Stack", crashOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			verifyOverlays(t, s.Handle())
			if err := s.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			// LIFO: an optional probe value on top, then the seeds in
			// strict reverse push order, then empty.
			top, ok, err := s.Pop()
			if err != nil || !ok {
				t.Fatalf("pop top: ok=%v err=%v", ok, err)
			}
			expect := crashSeedItems
			if bytes.Equal(top, probeVal) {
				// probe survived whole — continue with the seeds
			} else if bytes.Equal(top, crashVal(crashSeedItems)) && sealed == 0 {
				expect = crashSeedItems - 1
			} else {
				t.Fatalf("top of stack is %q, want probe or seed-%03d", top, crashSeedItems)
			}
			for i := expect; i >= 1; i-- {
				v, ok, err := s.Pop()
				if err != nil || !ok || !bytes.Equal(v, crashVal(i)) {
					t.Fatalf("LIFO broken at seed %d: ok=%v err=%v got=%q", i, ok, err, v)
				}
			}
			if _, ok, _ := s.Pop(); ok {
				t.Fatal("stack not empty after popping all expected items")
			}
		},
	}
}

func queueCrashCase() crashCase {
	return crashCase{
		name: "Queue",
		build: func(t *testing.T, c *core.Conn) func() error {
			q, err := CreateQueue(c, "Queue", crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				if err := q.Enqueue(crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, q.Handle())
			if err := q.Drain(); err != nil {
				t.Fatal(err)
			}
			return func() error { return q.Enqueue(probeVal) }
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			q, err := OpenQueue(c, "Queue", crashOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			verifyOverlays(t, q.Handle())
			if err := q.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			// FIFO: the seeds in strict enqueue order, optionally followed
			// by the probe value, then empty.
			for i := 1; i <= crashSeedItems; i++ {
				v, ok, err := q.Dequeue()
				if err != nil || !ok || !bytes.Equal(v, crashVal(i)) {
					t.Fatalf("FIFO broken at seed %d: ok=%v err=%v got=%q", i, ok, err, v)
				}
			}
			if v, ok, err := q.Dequeue(); err != nil {
				t.Fatalf("tail dequeue: %v", err)
			} else if ok && !bytes.Equal(v, probeVal) {
				t.Fatalf("tail item is %q, want the probe value or nothing", v)
			} else if !ok && sealed > 0 {
				t.Fatal("sealed enqueue was not re-executed")
			}
			if _, ok, _ := q.Dequeue(); ok {
				t.Fatal("queue not empty after the probe slot")
			}
		},
	}
}

// kvCrash is the common surface of the six index structures.
type kvCrash interface {
	Put(key uint64, val []byte) error
	Get(key uint64) ([]byte, bool, error)
	Handle() *core.Handle
	Drain() error
}

func makeKV(c *core.Conn, kind string) (kvCrash, error) {
	switch kind {
	case "HashTable":
		return CreateHashTable(c, kind, crashOpts())
	case "SkipList":
		return CreateSkipList(c, kind, crashOpts())
	case "BST":
		return CreateBST(c, kind, crashOpts())
	case "BPTree":
		return CreateBPTree(c, kind, crashOpts())
	case "MVBST":
		return CreateMVBST(c, kind, crashOpts())
	case "MVBPTree":
		return CreateMVBPTree(c, kind, crashOpts())
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

func reopenKVCrash(c *core.Conn, kind string) (kvCrash, error) {
	switch kind {
	case "HashTable":
		return OpenHashTable(c, kind, true, crashOpts())
	case "SkipList":
		return OpenSkipList(c, kind, true, crashOpts())
	case "BST":
		return OpenBST(c, kind, true, crashOpts())
	case "BPTree":
		return OpenBPTree(c, kind, true, crashOpts())
	case "MVBST":
		return OpenMVBST(c, kind, true, crashOpts())
	case "MVBPTree":
		return OpenMVBPTree(c, kind, true, crashOpts())
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// partCrashProbeKeys returns one key per partition (in partition order,
// avoiding the seed keys) so a PutMulti probe touches every partition.
func partCrashProbeKeys(parts int) []uint64 {
	keys := make([]uint64, parts)
	for want := 0; want < parts; want++ {
		for k := uint64(100); ; k++ {
			if partIndex(k, parts) == want {
				keys[want] = k
				break
			}
		}
	}
	return keys
}

// partitionedCrashCase crashes a cross-partition PutMulti at every
// write-class verb. Under ModeR (batch 1) each routed Put commits before
// the next partition's starts, so the surviving probe keys must be a
// prefix of the PutMulti order; the mapping meta entry must stay
// readable, and every surviving key must live in its owning partition.
func partitionedCrashCase() crashCase {
	const parts = 3
	return crashCase{
		name: "Part",
		build: func(t *testing.T, c *core.Conn) func() error {
			p, err := CreatePartitioned([]*core.Conn{c}, KindHashTable, "Part", parts, crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				if err := p.Put(uint64(i), crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, p.Handles()...)
			if err := p.DrainAll(); err != nil {
				t.Fatal(err)
			}
			probeKeys := partCrashProbeKeys(parts)
			probeVals := make([][]byte, parts)
			for i := range probeVals {
				probeVals[i] = probeVal
			}
			return func() error { return p.PutMulti(probeKeys, probeVals) }
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			// The dead writer held each partition's lock; the meta entry
			// never takes one (BreakLock on it was a no-op).
			for i := 0; i < parts; i++ {
				raw, err := c.Open(fmt.Sprintf("Part#%d", i), true)
				if err != nil {
					t.Fatalf("raw partition open %d: %v", i, err)
				}
				if err := raw.BreakLock(1); err != nil {
					t.Fatalf("break partition %d lock: %v", i, err)
				}
			}
			p, err := OpenSharded([]*core.Conn{c}, "Part", true, crashOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := p.Shards(); got != parts {
				t.Fatalf("mapping meta reports %d partitions, want %d", got, parts)
			}
			verifyOverlays(t, p.Handles()...)
			if err := p.DrainAll(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				got, ok, err := p.Get(uint64(i))
				if err != nil || !ok || !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("seed key %d lost or wrong: ok=%v err=%v got=%q", i, ok, err, got)
				}
			}
			probeKeys := partCrashProbeKeys(parts)
			vals, found, err := p.GetMulti(probeKeys)
			if err != nil {
				t.Fatalf("probe multi-get: %v", err)
			}
			inPrefix := true
			for i, k := range probeKeys {
				if found[i] && !bytes.Equal(vals[i], probeVal) {
					t.Fatalf("probe key %d mangled: got %q", k, vals[i])
				}
				if found[i] && !inPrefix {
					t.Fatalf("probe survivors not a prefix: key %d present after a gap", k)
				}
				if !found[i] {
					inPrefix = false
				}
				if !found[i] && i < sealed {
					t.Fatalf("sealed put of probe key %d was not re-executed", k)
				}
			}
			// Routing-table consistency: each surviving probe key must be
			// in exactly the partition the hash names.
			for i, k := range probeKeys {
				if !found[i] {
					continue
				}
				ht, err := OpenHashTable(c, fmt.Sprintf("Part#%d", partIndex(k, parts)), false, crashOpts())
				if err != nil {
					t.Fatalf("owner partition open: %v", err)
				}
				if _, ok, err := ht.Get(k); err != nil || !ok {
					t.Fatalf("probe key %d missing from its owning partition: ok=%v err=%v", k, ok, err)
				}
			}
		},
	}
}

// stripedProbeKeys returns one key per stripe (in stripe order, avoiding
// the seed keys) so a PutMulti probe touches every stripe.
func stripedProbeKeys(stripes int, bits uint) []uint64 {
	keys := make([]uint64, stripes)
	for want := 0; want < stripes; want++ {
		for k := uint64(100); ; k++ {
			if stripeOf(k, bits) == want {
				keys[want] = k
				break
			}
		}
	}
	return keys
}

// stripedCrashCase is the mid-stripe writer death row: a cross-stripe
// PutMulti crashed at every write-class verb. Ordered acquisition means
// the dying front-end holds every involved stripe lock — some stripes'
// puts fully logged, one possibly torn mid-write, the rest never started.
// Recovery is per stripe: each stripe's lock-ahead log still names the
// dead holder, BreakLock frees that stripe's word independently of its
// siblings, and the reopen scans that stripe's own logs (replaying a
// fully persisted op record, discarding a torn one). Seeds must survive
// byte-for-byte; under ModeR (batch 1) the surviving probe keys must be
// a prefix of the PutMulti order, each living in its owning stripe.
func stripedCrashCase() crashCase {
	const stripes = 4
	return crashCase{
		name: "Striped",
		build: func(t *testing.T, c *core.Conn) func() error {
			s, err := CreateStriped(c, KindHashTable, "Striped", stripes, crashOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				if err := s.Put(uint64(i), crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			probeKeys := stripedProbeKeys(stripes, s.bits)
			probeVals := make([][]byte, stripes)
			for i := range probeVals {
				probeVals[i] = probeVal
			}
			return func() error { return s.PutMulti(probeKeys, probeVals) }
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			// The dead writer held each involved stripe's shared lock; the
			// per-stripe lock-ahead logs name it, so each word is broken
			// independently.
			for i := 0; i < stripes; i++ {
				raw, err := c.Open(shardName("Striped", true, i, 0), true)
				if err != nil {
					t.Fatalf("raw stripe open %d: %v", i, err)
				}
				if err := raw.BreakLock(1); err != nil {
					t.Fatalf("break stripe %d lock: %v", i, err)
				}
			}
			s, err := OpenSharded([]*core.Conn{c}, "Striped", true, crashOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := s.Shards(); got != stripes {
				t.Fatalf("stripe meta reports %d stripes, want %d", got, stripes)
			}
			for i := 1; i <= crashSeedItems; i++ {
				got, ok, err := s.Get(uint64(i))
				if err != nil || !ok || !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("seed key %d lost or wrong: ok=%v err=%v got=%q", i, ok, err, got)
				}
			}
			probeKeys := stripedProbeKeys(stripes, s.bits)
			vals, found, err := s.GetMulti(probeKeys)
			if err != nil {
				t.Fatalf("probe multi-get: %v", err)
			}
			inPrefix := true
			for i, k := range probeKeys {
				if found[i] && !bytes.Equal(vals[i], probeVal) {
					t.Fatalf("probe key %d mangled: got %q", k, vals[i])
				}
				if found[i] && !inPrefix {
					t.Fatalf("probe survivors not a prefix: key %d present after a gap", k)
				}
				if !found[i] {
					inPrefix = false
				}
				if !found[i] && i < sealed {
					t.Fatalf("sealed put of probe key %d was not re-executed", k)
				}
				// Stripe-routing consistency: a surviving key must be in
				// exactly the stripe the hash names.
				if found[i] {
					if _, ok, err := s.Shard(i).Get(k); err != nil || !ok {
						t.Fatalf("probe key %d missing from its owning stripe: ok=%v err=%v", k, ok, err)
					}
				}
			}
		},
	}
}

const kvProbeKey = 50

func kvCrashCase(kind string) crashCase {
	return crashCase{
		name: kind,
		build: func(t *testing.T, c *core.Conn) func() error {
			kv, err := makeKV(c, kind)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				if err := kv.Put(uint64(i), crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, kv.Handle())
			if err := kv.Drain(); err != nil {
				t.Fatal(err)
			}
			return func() error { return kv.Put(kvProbeKey, probeVal) }
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			kv, err := reopenKVCrash(c, kind)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			verifyOverlays(t, kv.Handle())
			if err := kv.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			for i := 1; i <= crashSeedItems; i++ {
				got, ok, err := kv.Get(uint64(i))
				if err != nil || !ok || !bytes.Equal(got, crashVal(i)) {
					t.Fatalf("seed key %d lost or wrong: ok=%v err=%v got=%q", i, ok, err, got)
				}
			}
			got, ok, err := kv.Get(kvProbeKey)
			if err != nil {
				t.Fatalf("probe key get: %v", err)
			}
			if ok && !bytes.Equal(got, probeVal) {
				t.Fatalf("probe key mangled: got %q, want %q or absent", got, probeVal)
			}
			if !ok && sealed > 0 {
				t.Fatal("sealed put was not re-executed")
			}
			// Ordered structures must also scan sorted and complete.
			if bt, isBPT := kv.(*BPTree); isBPT {
				keys, _, err := bt.Scan(0, 64)
				if err != nil {
					t.Fatalf("scan: %v", err)
				}
				want := []uint64{1, 2, 3, 4, 5}
				if ok {
					want = append(want, kvProbeKey)
				}
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Fatalf("scan not sorted: %v", keys)
				}
				if len(keys) != len(want) {
					t.Fatalf("scan keys %v, want %v", keys, want)
				}
				for i := range want {
					if keys[i] != want[i] {
						t.Fatalf("scan keys %v, want %v", keys, want)
					}
				}
			}
		},
	}
}

// rangedTxCrashCase is the row for a transaction of ranged entries
// (core.Handle.WriteRanges) with no structure around it: one operation
// rewrites two drained units, three separated ranges of one and two of the
// other, so its commit record carries five entries that each patch part of
// a unit NVM already holds. Dying at any segment of the commit must leave
// every byte of both units as it was, or — once the op record is sealed,
// through re-execution — every range of both applied: a unit that mixes the
// two images is a range applied without its siblings.
func rangedTxCrashCase() crashCase {
	const name, unitLen = "RangedTx", 256
	dirty := [2][]core.Range{
		{{Off: 0, Len: 8}, {Off: 96, Len: 40}, {Off: 250, Len: 6}},
		{{Off: 30, Len: 2}, {Off: 128, Len: 64}},
	}
	var units [2]uint64
	image := func(u int, after bool) []byte {
		img := bytes.Repeat([]byte{byte(0x10 + u)}, unitLen)
		if after {
			for _, r := range dirty[u] {
				copy(img[r.Off:r.Off+r.Len], bytes.Repeat([]byte{byte(0xA0 + u)}, r.Len))
			}
		}
		return img
	}
	rewrite := func(h *core.Handle) error {
		for u, addr := range units {
			if err := h.WriteRanges(addr, image(u, true), dirty[u]...); err != nil {
				return err
			}
		}
		return h.EndOp()
	}
	return crashCase{
		name: name,
		build: func(t *testing.T, c *core.Conn) func() error {
			h, err := c.Create(name, backend.TypeApp, testCreate)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.WriterLock(); err != nil {
				t.Fatal(err)
			}
			for u := range units {
				if units[u], err = h.Alloc(unitLen); err != nil {
					t.Fatal(err)
				}
				if _, err := h.OpLog(OpPut, nil); err != nil {
					t.Fatal(err)
				}
				if err := h.Write(units[u], image(u, false)); err != nil {
					t.Fatal(err)
				}
				if err := h.EndOp(); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, h)
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
			return func() error {
				if _, err := h.OpLog(OpPut, nil); err != nil {
					return err
				}
				return rewrite(h)
			}
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			h, err := c.Open(name, true)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if err := h.WriterLock(); err != nil {
				t.Fatalf("writer lock: %v", err)
			}
			ops, err := h.PendingOps()
			if err != nil || len(ops) != sealed {
				t.Fatalf("%d pending ops (err %v), want the %d sealed", len(ops), err, sealed)
			}
			for range ops {
				if err := rewrite(h); err != nil {
					t.Fatalf("re-execution: %v", err)
				}
			}
			verifyOverlays(t, h)
			if err := h.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			applied := 0
			for u, addr := range units {
				got, err := h.ReadUncached(addr, unitLen)
				switch {
				case err != nil:
					t.Fatalf("unit %d: %v", u, err)
				case bytes.Equal(got, image(u, true)):
					applied++
				case !bytes.Equal(got, image(u, false)):
					t.Fatalf("unit %d mixes its two images: some of its ranges applied, some not", u)
				}
			}
			if applied == 1 || applied == 0 && sealed > 0 {
				t.Fatalf("%d of 2 units rewritten with %d ops sealed: the transaction's ranges applied in part", applied, sealed)
			}
		},
	}
}

// anchorCrashCase is the skip-list row for nodes the writer knows only by
// their cached headers. After a drain (overlay retired) and two lookups
// (headers admitted) the probe inserts right behind one seed and then
// updates another in place, so both units it rewrites are rebuilt from a
// whole-unit read taken first. A unit rebuilt from its header instead has
// neither the value nor the links: the ranged log would still carry only
// the bytes that changed, so NVM survives it, but the writer's overlay —
// what it reads its own list through until the replayer catches up — would
// not, and the probe's closing VerifyOverlay (reached only by the counting
// pass; every crash point dies before it) fails the row.
func anchorCrashCase() crashCase {
	const name, seeds = "SkipListAnchor", 64
	const pred, upd = uint64(2 * 20), uint64(2 * 40)
	opts := crashOpts()
	return crashCase{
		name:  name,
		cache: 1 << 20,
		build: func(t *testing.T, c *core.Conn) func() error {
			sl, err := CreateSkipList(c, name, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= seeds; i++ {
				if err := sl.Put(uint64(2*i), crashVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			verifyOverlays(t, sl.Handle())
			if err := sl.Drain(); err != nil {
				t.Fatal(err)
			}
			for _, k := range []uint64{pred, upd} {
				if _, _, err := sl.Get(k); err != nil {
					t.Fatal(err)
				}
				if _, _, img, err := sl.descend(k, nil); err != nil || len(img) != slHdr {
					t.Fatalf("seed %d is known by %d bytes (err %v), want its cached header", k, len(img), err)
				}
			}
			return func() error {
				if err := sl.Put(pred+1, probeVal); err != nil {
					return err
				}
				if err := sl.Put(upd, probeVal); err != nil {
					return err
				}
				return sl.Handle().VerifyOverlay()
			}
		},
		check: func(t *testing.T, c *core.Conn, sealed int) {
			sl, err := OpenSkipList(c, name, true, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			verifyOverlays(t, sl.Handle())
			if err := sl.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			inserted, updated := false, false
			for k := uint64(1); k <= 2*seeds+1; k++ {
				got, ok, err := sl.Get(k)
				switch {
				case err != nil:
					t.Fatalf("get %d: %v", k, err)
				case k == upd && ok && bytes.Equal(got, probeVal):
					updated = true
				case k%2 == 0 && (!ok || !bytes.Equal(got, crashVal(int(k/2)))):
					t.Fatalf("seed key %d lost or wrong: ok=%v got=%q", k, ok, got)
				case k%2 == 1 && ok:
					if inserted = true; k != pred+1 || !bytes.Equal(got, probeVal) {
						t.Fatalf("probe key %d mangled or misplaced: got %q", k, got)
					}
				}
			}
			if updated && !inserted || !inserted && sealed > 0 || !updated && sealed > 1 {
				t.Fatalf("insert present=%v, update present=%v with %d of the two sealed", inserted, updated, sealed)
			}
		},
	}
}

// ---- migration-phase rows (elastic rebalancing plane) ----
//
// A handoff adds crash surfaces of its own: the source dying mid-stream,
// the destination dying before cutover, and the coordinator dying in the
// window between the map flip and reclaim bookkeeping. Each row recovers
// on fresh front-ends (and, where the row kills a node, a rebuilt
// back-end over the crashed device) and asserts the two invariants the
// protocol promises: recovery lands on exactly ONE owner, and no
// committed operation is lost.

// migCrashOpts sizes migration crash cells.
func migCrashOpts() Options { return Options{Create: testCreate, Buckets: 256} }

// breakPart frees a dead writer's lock on one partition child.
func breakPart(t *testing.T, c *core.Conn, name string, holder uint16) {
	t.Helper()
	raw, err := c.Open(name, true)
	if err != nil {
		t.Fatalf("raw open %s: %v", name, err)
	}
	if err := raw.BreakLock(holder); err != nil {
		t.Fatalf("break lock %s: %v", name, err)
	}
}

// TestMigrationCrashSourceMidStream kills the source back-end while the
// snapshot streams. The map never flipped, so recovery must land on the
// source as sole owner, every committed op intact, and a retry must
// probe past the orphaned destination generation and complete.
func TestMigrationCrashSourceMidStream(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 2
	p, err := CreateElastic(cell.conns, KindHashTable, "mcrA", parts, migCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 60; i++ {
		if err := p.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[uint64(i)] = val(i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	const pi = 0 // lives on back-end 0, which also hosts the meta entry
	m, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if m.Dst() == nil {
		t.Fatal("begin left no destination structure")
	}
	// The source node dies a few verbs into the stream.
	seen, dead := 0, false
	cell.conns[0].Endpoint().SetFault(func(op rdma.Op, off uint64, sz int) rdma.Fault {
		if dead {
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		seen++
		if seen == 3 {
			dead = true
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		return rdma.Fault{}
	})
	if _, err := m.StreamSnapshot(); err == nil {
		t.Fatal("snapshot stream succeeded despite source death")
	}
	cell.crashBackend(0)

	conns2 := cell.connect(2)
	breakPart(t, conns2[0], "mcrA#0", 1)
	breakPart(t, conns2[1], "mcrA#1", 1)
	p2, err := OpenSharded(conns2, "mcrA", true, migCrashOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := p2.Migrating(); got != pi {
		t.Fatalf("recovered migration word names partition %d, want %d", got, pi)
	}
	res, err := p2.ResolveMigration()
	if err != nil {
		t.Fatal(err)
	}
	if res != -1 {
		t.Fatalf("resolution = %+d, want -1 (aborted stream)", res)
	}
	if h := p2.Handle(pi); h == nil || h.Conn().BackendID() != 0 {
		t.Fatal("ownership moved despite an unflipped map")
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("committed key %d lost: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
	// Retry: the orphaned generation-1 destination must not collide.
	m2, err := p2.BeginMigration(pi, conns2[1])
	if err != nil {
		t.Fatal(err)
	}
	if m2.gen != 2 {
		t.Fatalf("retry generation %d, want 2", m2.gen)
	}
	if _, err := m2.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Finish(); err != nil {
		t.Fatal(err)
	}
	if h := p2.Handle(pi); h == nil || h.Conn().BackendID() != 1 {
		t.Fatal("retry handoff did not land on the destination")
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d after retry handoff: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
}

// TestMigrationCrashDestBeforeCutover kills the destination back-end
// after the snapshot landed and the double-log window opened, before any
// cutover. The source remains sole owner with every committed write —
// including the double-logged suffix — and a retry completes.
func TestMigrationCrashDestBeforeCutover(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 2
	p, err := CreateElastic(cell.conns, KindHashTable, "mcrB", parts, migCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 60; i++ {
		if err := p.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[uint64(i)] = val(i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	const pi = 0
	m, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Double-logged suffix: committed on the source, mirrored to the
	// destination that is about to die.
	for i, k := range migKeysFor(pi, parts, 6, 1000) {
		if err := p.Put(k, val(5000+i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(5000 + i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	cell.crashBackend(1)

	conns2 := cell.connect(2)
	breakPart(t, conns2[0], "mcrB#0", 1)
	breakPart(t, conns2[1], "mcrB#1", 1)
	p2, err := OpenSharded(conns2, "mcrB", true, migCrashOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	res, err := p2.ResolveMigration()
	if err != nil {
		t.Fatal(err)
	}
	if res != -1 {
		t.Fatalf("resolution = %+d, want -1 (map never flipped)", res)
	}
	if h := p2.Handle(pi); h == nil || h.Conn().BackendID() != 0 {
		t.Fatal("ownership moved despite an unflipped map")
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("committed key %d lost: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
	m2, err := p2.BeginMigration(pi, conns2[1])
	if err != nil {
		t.Fatal(err)
	}
	if m2.gen != 2 {
		t.Fatalf("retry generation %d, want 2", m2.gen)
	}
	if _, err := m2.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Finish(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d after retry handoff: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
}

// TestMigrationCrashAfterFlip kills the coordinator — and then power-
// fails BOTH nodes — in the window between the cutover's map flip and
// the reclaim bookkeeping. The flip is one durable logged write, so
// recovery must land on the destination as sole owner with the full
// history (snapshot + double-logged suffix), and the stale source area
// must be dead weight, not a second owner.
func TestMigrationCrashAfterFlip(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 2
	p, err := CreateElastic(cell.conns, KindHashTable, "mcrC", parts, migCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 60; i++ {
		if err := p.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[uint64(i)] = val(i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	const pi = 0
	m, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	suffix := migKeysFor(pi, parts, 6, 1000)
	for i, k := range suffix {
		if err := p.Put(k, val(6000+i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(6000 + i)
	}
	if err := m.Cutover(); err != nil {
		t.Fatal(err)
	}
	// Coordinator dies here: no Finish, and both nodes power-fail.
	cell.crashBackend(0)
	cell.crashBackend(1)

	conns2 := cell.connect(2)
	breakPart(t, conns2[1], "mcrC#0.g1", 1)
	breakPart(t, conns2[1], "mcrC#1", 1)
	p2, err := OpenSharded(conns2, "mcrC", true, migCrashOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if h := p2.Handle(pi); h == nil || h.Conn().BackendID() != 1 {
		t.Fatal("durable flip lost: recovery did not land on the destination")
	}
	res, err := p2.ResolveMigration()
	if err != nil {
		t.Fatal(err)
	}
	if res != 1 {
		t.Fatalf("resolution = %+d, want +1 (flip already durable)", res)
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("committed key %d lost: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
	// Exactly one owner: a post-recovery write reaches the destination
	// area and never the stale source.
	probe := suffix[0]
	if err := p2.Put(probe, val(7777)); err != nil {
		t.Fatal(err)
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatal(err)
	}
	dstChild, err := OpenHashTable(conns2[1], "mcrC#0.g1", false, migCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := dstChild.Get(probe); err != nil || !ok || !bytes.Equal(got, val(7777)) {
		t.Fatalf("destination area missing the post-recovery write: ok=%v err=%v got=%q", ok, err, got)
	}
	srcChild, err := OpenHashTable(conns2[0], "mcrC#0", false, migCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := srcChild.Get(probe); ok && bytes.Equal(got, val(7777)) {
		t.Fatal("stale source area also received the post-recovery write: two owners")
	}
}

// TestMigrationCrashStriped covers the shared-discipline rows of the
// phase matrix, one stripe handed off through the single Migration: a
// coordinator death before cutover leaves the source sole owner with no
// acked key lost, and a retry succeeds on the next generation (past the
// orphaned destination); a death after cutover leaves the flipped owner
// word durable, so recovery lands on the destination with the full
// history and an attachment limited to the old home is redirected.
func TestMigrationCrashStriped(t *testing.T) {
	const si = 0
	// build seeds a striped table through a writer attached to both
	// back-ends and opens stripe si's handoff up to the double-log window.
	build := func(t *testing.T, cell *migCell, name string) (*Sharded, *Migration, map[uint64][]byte) {
		if _, err := CreateStriped(cell.conns[0], KindHashTable, name, 4, migCrashOpts()); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSharded(cell.conns, name, true, migCrashOpts())
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64][]byte{}
		for i := 1; i <= 80; i++ {
			k := uint64(i * 2654435761)
			if err := s.Put(k, val(i)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = val(i)
		}
		m, err := s.BeginMigration(si, cell.conns[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.StreamSnapshot(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			k := uint64(8_000_000 + i)
			if err := s.Put(k, val(4000+i)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = val(4000 + i)
		}
		return s, m, oracle
	}
	intact := func(t *testing.T, s *Sharded, oracle map[uint64][]byte, where string) {
		t.Helper()
		for k, want := range oracle {
			got, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("committed key %d lost %s: ok=%v err=%v got=%q", k, where, ok, err, got)
			}
		}
	}
	t.Run("before-cutover", func(t *testing.T) {
		cell := newMigCell(t, 2)
		_, _, oracle := build(t, cell, "mcrS")
		// Coordinator dies before Cutover; both nodes power-fail.
		cell.crashBackend(0)
		cell.crashBackend(1)

		conns2 := cell.connect(2)
		s2, err := OpenSharded(conns2, "mcrS", true, migCrashOpts())
		if err != nil {
			t.Fatalf("source must still open (map never flipped): %v", err)
		}
		if res, err := s2.ResolveMigration(); err != nil || res != -1 {
			t.Fatalf("resolution = %+d, %v; want -1 (aborted stream)", res, err)
		}
		if s2.Owner(si) != 0 || s2.Handle(si).Conn().BackendID() != 0 {
			t.Fatal("ownership moved despite an unflipped map")
		}
		intact(t, s2, oracle, "on the source")
		// Retry: the orphaned generation-1 destination must not collide.
		m2, err := s2.BeginMigration(si, conns2[1])
		if err != nil {
			t.Fatalf("retry past the orphaned destination: %v", err)
		}
		if m2.gen != 2 {
			t.Fatalf("retry generation %d, want 2", m2.gen)
		}
		if _, err := m2.StreamSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m2.Cutover(); err != nil {
			t.Fatal(err)
		}
		if err := m2.Finish(); err != nil {
			t.Fatal(err)
		}
		if s2.Handle(si).Conn().BackendID() != 1 {
			t.Fatal("retry handoff did not land on the destination")
		}
		intact(t, s2, oracle, "after the retry handoff")
	})
	t.Run("after-cutover", func(t *testing.T) {
		cell := newMigCell(t, 2)
		_, m, oracle := build(t, cell, "mcrS2")
		if err := m.Cutover(); err != nil {
			t.Fatal(err)
		}
		// Coordinator dies before Finish; both nodes power-fail.
		cell.crashBackend(0)
		cell.crashBackend(1)

		conns2 := cell.connect(2)
		if _, err := OpenSharded(conns2[:1], "mcrS2", false, migCrashOpts()); !errors.Is(err, core.ErrMoved) {
			t.Fatalf("open with only the old home attached = %v, want ErrMoved", err)
		}
		d, err := OpenSharded(conns2, "mcrS2", true, migCrashOpts())
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		if d.Handle(si).Conn().BackendID() != 1 {
			t.Fatal("recovery did not land on the destination despite a durable flip")
		}
		if res, err := d.ResolveMigration(); err != nil || res != 1 {
			t.Fatalf("resolution = %+d, %v; want +1 (completed flip)", res, err)
		}
		intact(t, d, oracle, "on the destination")
	})
}
