package asymnvm_test

import (
	"bytes"
	"fmt"
	"testing"

	"asymnvm"
	"asymnvm/internal/cluster"
)

// small log areas keep eight structures within the test device.
var fOpts = asymnvm.DSOptions{
	Create:  asymnvm.CreateOptions{MemLogSize: 512 << 10, OpLogSize: 256 << 10},
	Buckets: 128,
}

// The facade smoke test: everything a README user touches, end to end —
// cluster assembly, every structure constructor, workloads, stats,
// restart recovery and mirror promotion.
func TestFacadeEndToEnd(t *testing.T) {
	cl, err := asymnvm.NewCluster(asymnvm.ClusterConfig{
		Backends: 2, ReplicaMirrors: 1, ArchiveMirror: true, DeviceBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	client, err := cl.NewClient(1, asymnvm.ModeRCB(8<<20, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(client.Conns()) != 2 {
		t.Fatalf("client has %d connections, want 2", len(client.Conns()))
	}

	// One of each structure through the facade.
	st, err := client.CreateStack("f-stack", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Push([]byte("x"))
	q, err := client.CreateQueue("f-queue", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = q.Enqueue([]byte("y"))
	ht, err := client.CreateHashTable("f-ht", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := client.CreateSkipList("f-sl", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := client.CreateBST("f-bst", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	bpt, err := client.CreateBPTree("f-bpt", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	mvb, err := client.CreateMVBST("f-mvb", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	mvp, err := client.CreateMVBPTree("f-mvp", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []asymnvm.KV{ht, sl, bst, bpt, mvb, mvp} {
		for i := uint64(1); i <= 30; i++ {
			if err := kv.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := kv.Flush(); err != nil {
			t.Fatal(err)
		}
		v, ok, err := kv.Get(17)
		if err != nil || !ok || !bytes.Equal(v, []byte("v17")) {
			t.Fatalf("facade kv get: %q %v %v", v, ok, err)
		}
	}

	// Partitioned across both back-ends.
	part, err := client.CreatePartitioned(asymnvm.KindHashTable, "f-part", 4, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if err := part.Put(i*2654435761, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := part.Flush(); err != nil {
		t.Fatal(err)
	}

	// Workload generator round trip.
	gen := asymnvm.NewWorkload(asymnvm.WorkloadConfig{Seed: 1, Keys: 100, WritePct: 50, Theta: 0.9, Scramble: true})
	for i := 0; i < 100; i++ {
		op := gen.Next()
		if op.Key < 1 || op.Key > 100 {
			t.Fatal("workload key out of range")
		}
	}

	// Stats and virtual time moved.
	if client.Stats().RDMAVerbs() == 0 || client.VirtualTime() == 0 {
		t.Fatal("stats/virtual time not accounted")
	}

	// Drain the writers, then survive a power failure on back-end 0.
	_ = st.Drain()
	_ = q.Drain()
	type drainer interface{ Drain() error }
	for _, kv := range []asymnvm.KV{ht, sl, bst, bpt, mvb, mvp} {
		if err := kv.(drainer).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.RestartBackend(0, true); err != nil {
		t.Fatal(err)
	}
	client2, err := cl.NewClient(2, asymnvm.ModeRC(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	bpt2, err := client2.OpenBPTree("f-bpt", false, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := bpt2.Get(17)
	if err != nil || !ok || !bytes.Equal(v, []byte("v17")) {
		t.Fatalf("after restart: %q %v %v", v, ok, err)
	}

	// Promote the (re-attached) mirror of back-end 0 and read again.
	if err := cl.PromoteMirror(0, 0); err != nil {
		t.Fatal(err)
	}
	client3, err := cl.NewClient(3, asymnvm.ModeRC(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	bpt3, err := client3.OpenBPTree("f-bpt", false, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err = bpt3.Get(29)
	if err != nil || !ok || !bytes.Equal(v, []byte("v29")) {
		t.Fatalf("after promotion: %q %v %v", v, ok, err)
	}
	if cl.Archive(0) == nil {
		t.Fatal("archive mirror missing")
	}
}

func TestFacadeApps(t *testing.T) {
	cl, err := asymnvm.NewCluster(asymnvm.ClusterConfig{Backends: 1, DeviceBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client, err := cl.NewClient(1, asymnvm.ModeRC(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	tatp, err := client.NewTATP("f-tatp", 100, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := client.NewSmallBank("f-bank", 100, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	r := uint64(1)
	for i := 0; i < 500; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		if err := tatp.DoTx(r); err != nil {
			t.Fatal(err)
		}
		if err := bank.DoTx(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tatp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bank.Close(); err != nil {
		t.Fatal(err)
	}
}

// The reopen half of the facade (every Open* wrapper), plus elastic
// rebalancing end to end through the public API: create an elastic
// table, migrate a partition to the other back-end with the cluster
// orchestration, and read everything back through a plain reopen.
func TestFacadeOpenersAndElastic(t *testing.T) {
	cl, err := asymnvm.NewCluster(asymnvm.ClusterConfig{Backends: 2, DeviceBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client, err := cl.NewClient(1, asymnvm.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Backend(0) == nil || client.Conn(1) == nil || client.Frontend() == nil {
		t.Fatal("facade accessors returned nil")
	}
	if asymnvm.NewDevice(1<<20) == nil {
		t.Fatal("NewDevice returned nil")
	}

	st, err := client.CreateStack("o-stack", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Push([]byte("x"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := client.CreateQueue("o-queue", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = q.Enqueue([]byte("y"))
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	type kvCloser interface {
		asymnvm.KV
		Close() error
	}
	creates := []struct {
		name   string
		create func(string) (asymnvm.KV, error)
	}{
		{"o-ht", func(n string) (asymnvm.KV, error) { return client.CreateHashTable(n, fOpts) }},
		{"o-sl", func(n string) (asymnvm.KV, error) { return client.CreateSkipList(n, fOpts) }},
		{"o-bst", func(n string) (asymnvm.KV, error) { return client.CreateBST(n, fOpts) }},
		{"o-mvb", func(n string) (asymnvm.KV, error) { return client.CreateMVBST(n, fOpts) }},
		{"o-mvp", func(n string) (asymnvm.KV, error) { return client.CreateMVBPTree(n, fOpts) }},
	}
	for _, c := range creates {
		kv, err := c.create(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := kv.Put(7, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := kv.(kvCloser).Close(); err != nil {
			t.Fatal(err)
		}
	}
	tatp, err := client.NewTATP("o-tatp", 50, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = tatp.Close()
	bank, err := client.NewSmallBank("o-bank", 50, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	_ = bank.Close()

	// Elastic table: seed, migrate one partition to the other back-end
	// through the public surface, verify through a fresh reopen.
	ep, err := client.CreateElastic(asymnvm.KindHashTable, "o-elastic", 4, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if err := ep.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.DrainAll(); err != nil {
		t.Fatal(err)
	}
	pi := 0
	dst := 1 - ep.Owner(pi)
	if _, err := cluster.Rebalance(ep, pi, client.Conn(dst), cluster.RebalanceHooks{}); err != nil {
		t.Fatal(err)
	}
	if ep.Owner(pi) != dst {
		t.Fatal("facade rebalance did not move the partition")
	}

	// Reopen everything through the Open* wrappers on a second client.
	client2, err := cl.NewClient(2, asymnvm.ModeR())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client2.OpenStack("o-stack", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st2.Pop(); err != nil || !ok || !bytes.Equal(v, []byte("x")) {
		t.Fatalf("reopened stack pop: %q %v %v", v, ok, err)
	}
	q2, err := client2.OpenQueue("o-queue", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := q2.Dequeue(); err != nil || !ok || !bytes.Equal(v, []byte("y")) {
		t.Fatalf("reopened queue dequeue: %q %v %v", v, ok, err)
	}
	opens := []struct {
		name string
		open func(string) (asymnvm.KV, error)
	}{
		{"o-ht", func(n string) (asymnvm.KV, error) { return client2.OpenHashTable(n, false, fOpts) }},
		{"o-sl", func(n string) (asymnvm.KV, error) { return client2.OpenSkipList(n, false, fOpts) }},
		{"o-bst", func(n string) (asymnvm.KV, error) { return client2.OpenBST(n, false, fOpts) }},
		{"o-mvb", func(n string) (asymnvm.KV, error) { return client2.OpenMVBST(n, false, fOpts) }},
		{"o-mvp", func(n string) (asymnvm.KV, error) { return client2.OpenMVBPTree(n, false, fOpts) }},
	}
	for _, o := range opens {
		kv, err := o.open(o.name)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if v, ok, err := kv.Get(7); err != nil || !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("%s reopened get: %q %v %v", o.name, v, ok, err)
		}
	}
	if _, err := client2.OpenTATP("o-tatp", 50, false, fOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.OpenSmallBank("o-bank", 50, false, fOpts); err != nil {
		t.Fatal(err)
	}
	ep2, err := client2.OpenPartitioned("o-elastic", false, fOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if v, ok, err := ep2.Get(i); err != nil || !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("elastic key %d after migration: %q %v %v", i, v, ok, err)
		}
	}
	if ep2.Owner(pi) != dst {
		t.Fatal("reopened elastic map lost the migrated placement")
	}
	if cl.Internal() == nil {
		t.Fatal("Internal returned nil")
	}
}
