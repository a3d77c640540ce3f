package cluster

import (
	"bytes"
	"testing"

	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/workload"
)

// Consistent hashing's contract: adding a member moves partitions only
// TO the new member (nothing shuffles between survivors), and removing
// it restores the previous placement exactly.
func TestRingConsistentPlacement(t *testing.T) {
	const parts = 128
	r := NewRing(64)
	r.Add(0)
	r.Add(1)
	v2 := r.Version()
	before := make([]int, parts)
	for pi := range before {
		before[pi] = r.Owner(uint64(pi))
		if before[pi] != 0 && before[pi] != 1 {
			t.Fatalf("partition %d owned by non-member %d", pi, before[pi])
		}
	}

	r.Add(2)
	if r.Version() <= v2 {
		t.Fatal("membership change must bump the ring version")
	}
	moved := 0
	for pi := range before {
		now := r.Owner(uint64(pi))
		if now != before[pi] {
			if now != 2 {
				t.Fatalf("partition %d shuffled between survivors: %d -> %d", pi, before[pi], now)
			}
			moved++
		}
	}
	if moved == 0 || moved == parts {
		t.Fatalf("adding a member moved %d/%d partitions; want a proper subset", moved, parts)
	}

	r.Remove(2)
	for pi := range before {
		if now := r.Owner(uint64(pi)); now != before[pi] {
			t.Fatalf("partition %d did not return home after drain: %d != %d", pi, now, before[pi])
		}
	}
}

// Draining a back-end out of the ring and executing the planned moves
// leaves every partition owned by a surviving member with all data
// intact, and a fresh opener routes by the new map.
func TestRebalanceDrainsBackend(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 3})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	const parts = 6
	p, err := ds.CreateElastic(conns, ds.KindHashTable, "elastic", parts, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64][]byte)
	for k := uint64(1); k <= 200; k++ {
		v := workload.Value(k, 24)
		if err := p.Put(k, v); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}

	// Drain back-end 2: the ring drops the member, the planner emits the
	// moves, Rebalance executes each one.
	ring := NewRing(32)
	for i := range conns {
		ring.Add(i)
	}
	ring.Remove(2)
	// Force the current placement into the plan's "From" view: partitions
	// whose owner already matches the shrunk ring stay put.
	moves := PlanMoves(p, ring)
	for _, mv := range moves {
		if mv.To == 2 {
			t.Fatalf("planner moved partition %d TO the drained member", mv.Part)
		}
		n, err := Rebalance(p, mv.Part, conns[mv.To], RebalanceHooks{})
		if err != nil {
			t.Fatalf("rebalance part %d -> %d: %v", mv.Part, mv.To, err)
		}
		if n == 0 {
			t.Fatalf("rebalance part %d streamed zero ops", mv.Part)
		}
	}
	if len(PlanMoves(p, ring)) != 0 {
		t.Fatal("plan not empty after executing every move")
	}
	for pi := 0; pi < parts; pi++ {
		if p.Owner(pi) == 2 {
			t.Fatalf("partition %d still owned by the drained back-end", pi)
		}
	}
	for k, want := range oracle {
		v, ok, err := p.Get(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d lost in rebalance: ok=%v err=%v", k, ok, err)
		}
	}

	// A fresh front-end opens by the persisted versioned map alone.
	_, conns2, err := cl.NewFrontend(2, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ds.OpenSharded(conns2, "elastic", false, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range oracle {
		v, ok, err := p2.Get(k)
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("fresh opener: key %d: ok=%v err=%v", k, ok, err)
		}
	}
}

// A hook failure before cutover aborts the handoff: the source stays
// the sole owner, data intact, and a retry completes.
func TestRebalanceAbortsOnHookError(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 2})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.CreateElastic(conns, ds.KindHashTable, "hooked", 2, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 60; k++ {
		if err := p.Put(k, workload.Value(k, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	pi := 0
	if p.Owner(0) == 1 {
		pi = 1
	}
	boom := &hookError{}
	if _, err := Rebalance(p, pi, conns[1], RebalanceHooks{
		AfterStream: func(m *ds.Migration, ops int) error { return boom },
	}); err == nil {
		t.Fatal("hook error must fail the rebalance")
	}
	if p.Migrating() != -1 {
		t.Fatal("aborted rebalance left a migration in flight")
	}
	if p.Owner(pi) != pi%2 {
		t.Fatalf("aborted rebalance changed ownership of partition %d", pi)
	}
	if _, err := Rebalance(p, pi, conns[1], RebalanceHooks{}); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	if p.Owner(pi) != 1 {
		t.Fatal("retry did not move the partition")
	}
	for k := uint64(1); k <= 60; k++ {
		v, ok, err := p.Get(k)
		if err != nil || !ok || !bytes.Equal(v, workload.Value(k, 16)) {
			t.Fatalf("key %d lost across abort+retry: ok=%v err=%v", k, ok, err)
		}
	}
}

type hookError struct{}

func (*hookError) Error() string { return "injected hook failure" }

// Regression for the stale-owner bug: after RehomeArchive moves a
// slot's archive stream, RestartBackend must re-attach it at its
// CURRENT home (the archiveHome mapping), not the open-time slot
// identity. A restarted old home must not re-adopt the stream, and a
// restarted new home must keep feeding it.
func TestRestartReattachesRehomedArchive(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 2, ArchivePerBack: true})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	ht, err := ds.CreateHashTable(conns[0], "pre", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		if err := ht.Put(k, workload.Value(k, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ht.Close(); err != nil {
		t.Fatal(err)
	}

	// Model the structure's history having migrated off slot 0: retire
	// slot 1's own archive and re-home slot 0's stream to slot 1. (The
	// white-box retirement stands in for a deployment where only slot 0
	// archived; Config wires archives all-or-nothing.)
	cl.Backends[1].RemoveMirror(cl.Archives[1])
	cl.archiveHome[1] = -1
	if err := cl.RehomeArchive(0, 1); err != nil {
		t.Fatal(err)
	}
	arch := cl.Archives[0]
	ops0, err := arch.Ops()
	if err != nil {
		t.Fatal(err)
	}
	base := len(ops0)
	if base == 0 {
		t.Fatal("archive captured nothing before the re-home")
	}

	// Restart the OLD home. With the identity lookup it would re-adopt
	// the stream; ops written on slot 0 afterwards must NOT be archived.
	if _, _, err := cl.RestartBackend(0, false); err != nil {
		t.Fatal(err)
	}
	_, connsA, err := cl.NewFrontend(2, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	post0, err := ds.CreateHashTable(connsA[0], "post0", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		if err := post0.Put(k, workload.Value(k, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := post0.Drain(); err != nil {
		t.Fatal(err)
	}
	ops1, err := arch.Ops()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops1) != base {
		t.Fatalf("restarted old home leaked %d ops into the re-homed archive", len(ops1)-base)
	}

	// Restart the NEW home; ops written on slot 1 afterwards MUST land
	// in the stream it now owns.
	if _, _, err := cl.RestartBackend(1, false); err != nil {
		t.Fatal(err)
	}
	_, connsB, err := cl.NewFrontend(3, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	// Pad slot 0 of back-end 1's naming space first: the archive stream
	// dedups frames per slot by op-log offset, and "pre" already archived
	// a slot-0 history from the old home, so the observed structure must
	// land on a distinct slot.
	if _, err := ds.CreateHashTable(connsB[1], "pad1", dsOpts); err != nil {
		t.Fatal(err)
	}
	post1, err := ds.CreateHashTable(connsB[1], "post1", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		if err := post1.Put(k, workload.Value(k, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := post1.Drain(); err != nil {
		t.Fatal(err)
	}
	ops2, err := arch.Ops()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops2) <= base {
		t.Fatal("restarted new home stopped feeding the re-homed archive")
	}
}

// The ring's membership edges: vnode default, idempotent add/remove,
// sorted member listing, and the empty-ring sentinel.
func TestRingMembershipEdges(t *testing.T) {
	r := NewRing(0) // <= 0 falls back to the 16-vnode default
	if r.Owner(7) != -1 {
		t.Fatal("empty ring must report owner -1")
	}
	if m := r.Members(); len(m) != 0 {
		t.Fatalf("empty ring lists members %v", m)
	}
	r.Add(3)
	r.Add(1)
	v := r.Version()
	r.Add(3)    // duplicate: no-op, no version bump
	r.Remove(9) // non-member: no-op, no version bump
	if r.Version() != v {
		t.Fatal("no-op membership changes bumped the version")
	}
	if m := r.Members(); len(m) != 2 || m[0] != 1 || m[1] != 3 {
		t.Fatalf("members not sorted ascending: %v", m)
	}
	if len(r.points) != 2*16 {
		t.Fatalf("vnode default not applied: %d points", len(r.points))
	}
	if own := r.Owner(7); own != 1 && own != 3 {
		t.Fatalf("partition owned by non-member %d", own)
	}
	// An empty plan against a structure-free diff is exercised in the
	// drain test; here pin only that PlanMoves skips an empty ring.
}

// RehomeArchive's refusal cases: bad slots, self-move, a source with no
// archive, and a destination that already owns one.
func TestRehomeArchiveRefusals(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 2, ArchivePerBack: true})
	if err := cl.RehomeArchive(-1, 1); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if err := cl.RehomeArchive(0, 5); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := cl.RehomeArchive(1, 1); err != nil {
		t.Fatalf("self re-home must be a no-op, got %v", err)
	}
	// Both slots own an archive: destination occupied.
	if err := cl.RehomeArchive(0, 1); err == nil {
		t.Fatal("occupied destination accepted")
	}
	// Retire slot 0's archive; it then has nothing to re-home.
	cl.Backends[0].RemoveMirror(cl.Archives[0])
	cl.archiveHome[0] = -1
	if err := cl.RehomeArchive(0, 1); err == nil {
		t.Fatal("archive-less source accepted")
	}
}
