package cluster

import (
	"bytes"
	"testing"

	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/fault"
	"asymnvm/internal/logrec"
)

var zprof = clock.ZeroProfile()

var dsOpts = ds.Options{
	Create:  core.CreateOptions{MemLogSize: 1 << 20, OpLogSize: 512 << 10},
	Buckets: 256,
}

func smallCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Profile = zprof
	if cfg.DeviceBytes == 0 {
		cfg.DeviceBytes = 64 << 20
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func TestKeepAliveLeases(t *testing.T) {
	ka := NewKeepAlive()
	events := ka.Watch()
	if err := ka.Register("fe1", RoleFrontend, 2); err != nil {
		t.Fatal(err)
	}
	if e := <-events; e.Kind != EventJoined || e.Name != "fe1" {
		t.Fatalf("unexpected event %+v", e)
	}
	ka.Tick()
	_ = ka.Renew("fe1")
	ka.Tick()
	ka.Tick()
	if ka.Alive("fe1") {
		// lastSeen=1, now=3, ttl=2 → 3-1 > 2 is false… renew kept it.
	}
	ka.Tick() // now=4, 4-1 > 2 → expire
	if ka.Alive("fe1") {
		t.Fatal("lease should have expired")
	}
	if e := <-events; e.Kind != EventCrashed {
		t.Fatalf("expected crash event, got %+v", e)
	}
	// Reboot: renew revives.
	if err := ka.Renew("fe1"); err != nil {
		t.Fatal(err)
	}
	if !ka.Alive("fe1") {
		t.Fatal("renew must revive")
	}
	if e := <-events; e.Kind != EventRecovered {
		t.Fatalf("expected recover event, got %+v", e)
	}
}

func TestKeepAliveDuplicateAndCounts(t *testing.T) {
	ka := NewKeepAlive()
	_ = ka.Register("b0", RoleBackend, 5)
	_ = ka.Register("m0", RoleMirror, 5)
	_ = ka.Register("m1", RoleMirror, 5)
	if err := ka.Register("b0", RoleBackend, 5); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if n := ka.AliveCount(RoleMirror); n != 2 {
		t.Fatalf("mirror count %d", n)
	}
	ka.Expire("m0")
	if n := ka.AliveCount(RoleMirror); n != 1 {
		t.Fatalf("mirror count after expiry %d", n)
	}
	if err := ka.Renew("ghost"); err == nil {
		t.Fatal("renew of unknown member must fail")
	}
}

func TestClusterBackendTransientRestart(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 1})
	fe, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	_ = fe
	ht, err := ds.CreateHashTable(conns[0], "ht", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		_ = ht.Put(uint64(i), []byte{byte(i)})
	}
	if err := ht.Close(); err != nil {
		t.Fatal(err)
	}

	// Case 3: kill the back-end with a power failure and restart it on
	// the same device.
	_, slots, err := cl.RestartBackend(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 || slots[0].Name != "ht" {
		t.Fatalf("recovered slots: %+v", slots)
	}
	fe2, conns2, err := cl.NewFrontend(2, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	_ = fe2
	ht2, err := ds.OpenHashTable(conns2[0], "ht", false, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		v, ok, err := ht2.Get(uint64(i))
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("key %d lost across restart: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestClusterMirrorPromotion(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 1, MirrorsPerBack: 2})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	bst, err := ds.CreateBST(conns[0], "tree", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		_ = bst.Put(uint64(i), []byte{byte(i)})
	}
	if err := bst.Close(); err != nil {
		t.Fatal(err)
	}

	// Case 4 with an NVM replica: vote mirror 0 the new back-end.
	nb, err := cl.PromoteMirror(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Mirrors[0]) != 1 {
		t.Fatal("promoted mirror must leave the mirror list")
	}
	_, conns2, err := cl.NewFrontend(3, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	if conns2[0].BackendID() != nb.ID() {
		t.Fatal("front-end should reconnect to the promoted node")
	}
	bst2, err := ds.OpenBST(conns2[0], "tree", false, dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		v, ok, err := bst2.Get(uint64(i))
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("key %d lost across promotion: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestClusterRebuildFromArchive(t *testing.T) {
	cl := smallCluster(t, Config{Backends: 1, ArchivePerBack: true})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	ht, err := ds.CreateHashTable(conns[0], "bankish", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		_ = ht.Put(uint64(i), []byte{byte(i), byte(i >> 8)})
	}
	if err := ht.Close(); err != nil {
		t.Fatal(err)
	}

	// Case 4 without an NVM replica: format a fresh back-end and replay
	// the archived semantic stream through a new structure.
	var fresh *ds.HashTable
	_, err = cl.RebuildFromArchive(0, cl.Archives[0], func(slot uint16, rec logrec.OpRecord) error {
		if fresh == nil {
			_, conns2, err := cl.NewFrontend(2, core.ModeR())
			if err != nil {
				return err
			}
			fresh, err = ds.CreateHashTable(conns2[0], "bankish", dsOpts)
			if err != nil {
				return err
			}
		}
		return fresh.ReplayOp(rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == nil {
		t.Fatal("archive replay never ran")
	}
	if err := fresh.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		v, ok, err := fresh.Get(uint64(i))
		if err != nil || !ok || !bytes.Equal(v, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("archived key %d not rebuilt: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestFrontendWriterCrashRecovery(t *testing.T) {
	// Case 2: the front-end writer dies holding the lock with
	// acknowledged ops whose memory logs never flushed; a successor
	// breaks the lock and re-executes pending ops.
	cl := smallCluster(t, Config{Backends: 1})
	_, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ds.CreateStack(conns[0], "crashstack", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Push([]byte("one"))
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	// The crash: the writer dies inside its commit flush, after the op
	// group's segment sealed and before any byte of the commit record
	// arrived, and never unlocks.
	conns[0].Endpoint().SetFault(fault.LoseCommitRecord(conns[0].Frontend().Stats()))
	if err := st.Push([]byte("two")); err == nil {
		t.Fatal("push through a dying commit flush succeeded")
	}
	cl.KA.Expire("frontend1")

	_, conns2, err := cl.NewFrontend(2, core.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := conns2[0].Open("crashstack", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.BreakLock(1); err != nil {
		t.Fatal(err)
	}
	st2, err := ds.OpenStack(conns2[0], "crashstack", dsOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("recovered stack has %d items, want 2", st2.Len())
	}
	v, ok, err := st2.Pop()
	if err != nil || !ok || string(v) != "two" {
		t.Fatalf("pending push not re-executed: %q ok=%v err=%v", v, ok, err)
	}
	v, ok, _ = st2.Pop()
	if !ok || string(v) != "one" {
		t.Fatalf("baseline lost: %q", v)
	}
}
