package ds

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
)

// migCell is an N-back-end world with one writer front-end attached to
// every back-end — the minimal elastic-rebalancing topology.
type migCell struct {
	t       *testing.T
	devs    []*nvm.Device
	bks     []*backend.Backend
	stopped []bool
	conns   []*core.Conn
}

func newMigCell(t *testing.T, n int) *migCell {
	t.Helper()
	c := &migCell{t: t}
	for i := 0; i < n; i++ {
		dev := nvm.NewDevice(64 << 20)
		bk, err := backend.New(dev, backend.Options{ID: uint16(i), Profile: &zprof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		c.devs = append(c.devs, dev)
		c.bks = append(c.bks, bk)
		c.stopped = append(c.stopped, false)
	}
	t.Cleanup(func() {
		for i, bk := range c.bks {
			if !c.stopped[i] {
				bk.Stop()
			}
		}
	})
	c.conns = c.connect(1)
	return c
}

// connect attaches a fresh front-end to every live back-end.
func (c *migCell) connect(feID uint16) []*core.Conn {
	c.t.Helper()
	fe := core.NewFrontend(core.FrontendOptions{ID: feID, Mode: core.ModeRC(4 << 20), Profile: &zprof})
	conns := make([]*core.Conn, 0, len(c.bks))
	for _, bk := range c.bks {
		conn, err := fe.Connect(bk)
		if err != nil {
			c.t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	return conns
}

// crashBackend power-fails back-end i and restarts it on the same
// device. Existing connections to it are dead; callers re-connect.
func (c *migCell) crashBackend(i int) {
	c.t.Helper()
	c.bks[i].Stop()
	c.devs[i].Crash(nil)
	bk, err := backend.New(c.devs[i], backend.Options{ID: uint16(i), Profile: &zprof})
	if err != nil {
		c.t.Fatal(err)
	}
	bk.Start()
	c.bks[i] = bk
}

// migKeysFor returns n keys owned by partition pi (skipping base seeds).
func migKeysFor(pi, parts, n int, from uint64) []uint64 {
	var keys []uint64
	for k := from; len(keys) < n; k++ {
		if partIndex(k, parts) == pi {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestElasticMigrationHandoff drives one full handoff — begin, snapshot
// stream, double-log window, cutover, finish — and checks that no
// committed write is lost or duplicated, the writer and fresh openers
// route to the new owner, and the stats counters tell the story.
func TestElasticMigrationHandoff(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 4
	p, err := CreateElastic(cell.conns, KindHashTable, "el", parts, Options{Create: testCreate, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	put := func(k uint64, i int) {
		t.Helper()
		if err := p.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(i)
	}
	for i := 1; i <= 200; i++ {
		put(uint64(i), i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}

	const pi = 1 // default owner conns[1]; hand off to conns[0]
	dst := cell.conns[0]
	st := p.meta.Conn().Frontend().Stats()
	base := st.Snapshot()

	m, err := p.BeginMigration(pi, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Migrating(); got != pi {
		t.Fatalf("Migrating() = %d, want %d", got, pi)
	}
	// Writes before the snapshot land in the source only and ride the
	// stream; writes after it double-log.
	pre := migKeysFor(pi, parts, 8, 1000)
	for i, k := range pre {
		put(k, 2000+i)
	}
	n, err := m.StreamSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("snapshot streamed zero ops")
	}
	suf := migKeysFor(pi, parts, 8, 5000)
	for i, k := range suf {
		put(k, 3000+i)
	}
	// Overwrite a streamed key during the window: last write must win.
	put(pre[0], 4000)
	if err := m.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}

	if h := p.Handle(pi); h == nil || h.Conn() != dst {
		t.Fatal("writer does not route the migrated partition to the destination")
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		got, ok, err := p.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d after cutover: ok=%v err=%v got=%q want=%q", k, ok, err, got, want)
		}
	}

	d := st.Snapshot().Sub(base)
	if d.DoubleLoggedOps < int64(len(suf)) {
		t.Fatalf("DoubleLoggedOps = %d, want >= %d", d.DoubleLoggedOps, len(suf))
	}
	if d.CutoverEpochs != 1 {
		t.Fatalf("CutoverEpochs = %d, want 1", d.CutoverEpochs)
	}
	if st.MigrationsActive.Load() != 0 {
		t.Fatalf("MigrationsActive = %d after Finish, want 0", st.MigrationsActive.Load())
	}

	// A fresh opener resolves ownership purely from the persisted map.
	conns2 := cell.connect(2)
	p2, err := OpenSharded(conns2, "el", false, Options{Create: testCreate, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	if h := p2.Handle(pi); h == nil || h.Conn().BackendID() != dst.BackendID() {
		t.Fatal("fresh opener does not route the migrated partition to the destination")
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("fresh opener key %d: ok=%v err=%v got=%q want=%q", k, ok, err, got, want)
		}
	}
}

// TestElasticReaderFenceFollowsCutover pins the epoch fence: a reader
// attached BEFORE a migration observes the cutover on its next routed
// operation — the meta slot SN bump makes it re-read the map and re-open
// the moved partition — and then reads post-cutover writes that only
// ever reached the destination.
func TestElasticReaderFenceFollowsCutover(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 2
	p, err := CreateElastic(cell.conns, KindHashTable, "fence", parts, Options{Create: testCreate, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	const pi = 0
	k := migKeysFor(pi, parts, 1, 100)[0]
	if err := p.Put(k, val(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}

	rconns := cell.connect(7)
	rp, err := OpenSharded(rconns, "fence", false, Options{Create: testCreate, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := rp.Get(k); err != nil || !ok || !bytes.Equal(got, val(1)) {
		t.Fatalf("pre-migration read: ok=%v err=%v got=%q", ok, err, got)
	}
	oldConn := rp.Handle(pi).Conn()

	m, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	// This write exists ONLY on the destination.
	if err := p.Put(k, val(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}

	got, ok, err := rp.Get(k)
	if err != nil || !ok || !bytes.Equal(got, val(2)) {
		t.Fatalf("post-cutover read through the fence: ok=%v err=%v got=%q want=%q", ok, err, got, val(2))
	}
	newConn := rp.Handle(pi).Conn()
	if newConn == oldConn {
		t.Fatal("reader fence did not re-open the moved partition")
	}
	if newConn.BackendID() != cell.conns[1].BackendID() {
		t.Fatalf("reader routed to back-end %d, want %d", newConn.BackendID(), cell.conns[1].BackendID())
	}
	if rp.Version() < 2 {
		t.Fatalf("reader map version %d, want >= 2 after cutover", rp.Version())
	}
}

// TestMigrationAbortAndGenerationProbe pins retry hygiene: an aborted
// handoff leaves its destination generation as orphaned garbage, and the
// next attempt's creation probe skips past it instead of colliding.
func TestMigrationAbortAndGenerationProbe(t *testing.T) {
	cell := newMigCell(t, 2)
	const parts = 2
	p, err := CreateElastic(cell.conns, KindHashTable, "probe", parts, Options{Create: testCreate, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := p.Put(uint64(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	const pi = 0
	m1, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if m1.gen != 1 {
		t.Fatalf("first attempt generation %d, want 1", m1.gen)
	}
	if _, err := m1.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Abort(); err != nil {
		t.Fatal(err)
	}
	if p.Migrating() != -1 {
		t.Fatal("abort left a migration word")
	}
	// Writes after the abort must stop double-logging.
	if err := p.Put(2, val(999)); err != nil {
		t.Fatal(err)
	}

	m2, err := p.BeginMigration(pi, cell.conns[1])
	if err != nil {
		t.Fatal(err)
	}
	if m2.gen != 2 {
		t.Fatalf("retry generation %d, want 2 (probe past the orphan)", m2.gen)
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
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		want := val(i)
		if i == 2 {
			want = val(999)
		}
		got, ok, err := p.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d after retry handoff: ok=%v err=%v got=%q", i, ok, err, got)
		}
	}
	// The abandoned generation-1 orphan must still be there (lazy
	// reclaim), distinct from the live generation-2 destination.
	if _, err := OpenHashTable(cell.conns[1], shardName("probe", false, pi, 1), false, Options{Create: testCreate, Buckets: 256}); err != nil {
		t.Fatalf("orphan generation missing: %v", err)
	}
}

// TestCutoverMapWriteFailureLeavesMapUnflipped pins installMap's
// stage-write-commit order: a partition window on the meta connection
// longer than the retry budget fails Cutover's one map write, and the
// handle must then claim nothing that never became durable — owner and
// version unchanged, the double-log window still open — so a second
// Cutover succeeds and a fresh reader sees every acked key.
func TestCutoverMapWriteFailureLeavesMapUnflipped(t *testing.T) {
	// Meta on back-end 0, the moving shard on 1, its destination on 2:
	// only the map write touches the meta connection during Cutover.
	cell := newMigCell(t, 3)
	const parts, pi = 3, 1
	opts := Options{Create: testCreate, Buckets: 256}
	p, err := CreateElastic(cell.conns, KindHashTable, "cutfail", parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	put := func(k uint64, i int) {
		t.Helper()
		if err := p.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(i)
	}
	for i := 1; i <= 90; i++ {
		put(uint64(i), i)
	}
	m, err := p.BeginMigration(pi, cell.conns[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	owner, version := p.Owner(pi), p.Version()

	fe := cell.conns[0].Frontend()
	window := fe.RetryPolicy().MaxAttempts
	cell.conns[0].Endpoint().SetFault(func(rdma.Op, uint64, int) rdma.Fault {
		if window == 0 {
			return rdma.Fault{}
		}
		window--
		return rdma.Fault{Err: rdma.ErrInjected}
	})
	if err := m.Cutover(); !errors.Is(err, rdma.ErrInjected) {
		t.Fatalf("Cutover under a partition longer than the retry budget = %v, want the injected fault", err)
	}
	if p.Owner(pi) != owner || p.Version() != version {
		t.Fatalf("failed cutover claimed a flip: owner %d->%d version %d->%d", owner, p.Owner(pi), version, p.Version())
	}
	if p.Migrating() != pi || p.Handle(pi).Conn() != cell.conns[1] {
		t.Fatal("failed cutover moved the migration word or the writer's route")
	}
	before := fe.Stats().DoubleLoggedOps.Load()
	suf := migKeysFor(pi, parts, 4, 7000)
	for i, k := range suf {
		put(k, 6000+i)
	}
	if got := fe.Stats().DoubleLoggedOps.Load() - before; got != int64(len(suf)) {
		t.Fatalf("double-logged %d of %d writes after the failed cutover", got, len(suf))
	}

	if err := m.Cutover(); err != nil {
		t.Fatalf("second cutover: %v", err)
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.Owner(pi) != 2 || p.Version() != version+1 {
		t.Fatalf("after the retried cutover: owner %d version %d, want 2 and %d", p.Owner(pi), p.Version(), version+1)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenSharded(cell.connect(2), "cutfail", false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Owner(pi) != 2 {
		t.Fatalf("fresh reader routes shard %d to connection %d, want 2", pi, p2.Owner(pi))
	}
	for k, want := range oracle {
		got, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("fresh reader key %d: ok=%v err=%v got=%q want=%q", k, ok, err, got, want)
		}
	}
}

// TestStripedReHome re-homes a striped structure to another back-end one
// stripe at a time through the single Migration: each stripe's history
// streams, the double-log window covers live writes, and the cutover
// flips that stripe's owner word. Afterwards an attachment that can reach
// only the old home is redirected with core.ErrMoved, and a fresh
// front-end attached to both finds every committed write at the new one.
func TestStripedReHome(t *testing.T) {
	cell := newMigCell(t, 2)
	opts := Options{Create: testCreate, Buckets: 256}
	if _, err := CreateStriped(cell.conns[0], KindHashTable, "sh", 4, opts); err != nil {
		t.Fatal(err)
	}
	// The migrating writer attaches over every back-end a stripe may move
	// to (the creator saw only the home).
	s, err := OpenSharded(cell.conns, "sh", true, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 120; i++ {
		k := uint64(i * 2654435761)
		if err := s.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(i)
	}
	st := cell.conns[0].Frontend().Stats()
	for si := 0; si < s.Shards(); si++ {
		m, err := s.BeginMigration(si, cell.conns[1])
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.StreamSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("stripe %d snapshot streamed zero ops", si)
		}
		// Live suffix: the keys landing on the moving stripe are
		// double-logged to both homes.
		before := st.DoubleLoggedOps.Load()
		for i := 1; i <= 20; i++ {
			k := uint64(9_000_000 + 100*si + i)
			if err := s.Put(k, val(7000+i)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = val(7000 + i)
		}
		if st.DoubleLoggedOps.Load() == before {
			t.Fatalf("stripe %d: no live write was double-logged", si)
		}
		if err := m.Cutover(); err != nil {
			t.Fatal(err)
		}
		if err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		if s.Owner(si) != 1 || s.Handle(si).Conn() != cell.conns[1] {
			t.Fatalf("stripe %d did not land on the destination", si)
		}
	}
	// The migrating writer routes to the new home, with every committed
	// write.
	for k, want := range oracle {
		got, ok, err := s.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("re-homed key %d: ok=%v err=%v got=%q want=%q", k, ok, err, got, want)
		}
	}
	// An attachment that can reach only the old home is redirected.
	if _, err := OpenSharded(cell.conns[:1], "sh", false, opts); !errors.Is(err, core.ErrMoved) {
		t.Fatalf("open with only the old home attached = %v, want ErrMoved", err)
	}
	// A fresh front-end finds it under the same name at the new home.
	conns2 := cell.connect(3)
	d2, err := OpenSharded(conns2, "sh", false, opts)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < d2.Shards(); si++ {
		if d2.Handle(si).Conn().BackendID() != 1 {
			t.Fatalf("fresh reader opened stripe %d at the old home", si)
		}
	}
	for k, want := range oracle {
		got, ok, err := d2.Get(k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("re-homed open get %d: ok=%v err=%v got=%q", k, ok, err, got)
		}
	}
}

var _ = fmt.Sprintf // keep fmt linked for debug edits
