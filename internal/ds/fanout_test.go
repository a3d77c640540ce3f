package ds

import (
	"bytes"
	"math/rand"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
)

// fanoutRig builds k back-ends sharing one virtual-clock profile and a
// front-end connected to all of them. The overlap assertions need real
// verb costs, so this rig uses the default profile, not the zero one.
func fanoutRig(t *testing.T, k int, mode core.Mode) ([]*core.Conn, []*backend.Backend) {
	t.Helper()
	prof := clock.DefaultProfile()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: mode, Profile: &prof})
	var conns []*core.Conn
	var bks []*backend.Backend
	for i := 0; i < k; i++ {
		dev := nvm.NewDevice(64 << 20)
		bk, err := backend.New(dev, backend.Options{ID: uint16(i), Profile: &prof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		t.Cleanup(bk.Stop)
		c, err := fe.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		bks = append(bks, bk)
	}
	return conns, bks
}

// TestSkipListGetMulti checks the batched descent against per-key Gets —
// missing keys, updated keys — and pins the round-trip saving.
func TestSkipListGetMulti(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR().WithPipeline(16))
	sl, err := CreateSkipList(c, "smg", Options{Create: testCreate, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := sl.Put(uint64(i*3), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Put(30, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := sl.Drain(); err != nil {
		t.Fatal(err)
	}

	keys := []uint64{0, 30, 31, 99, 300, 357, 1000000, 30}
	st := c.Frontend().Stats()
	before := st.Snapshot().RDMAVerbs()
	vals, found, err := sl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	groupVerbs := st.Snapshot().RDMAVerbs() - before
	for i, k := range keys {
		wv, wf, err := sl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if wf != found[i] || !bytes.Equal(wv, vals[i]) {
			t.Fatalf("key %d: GetMulti (%q,%v) != Get (%q,%v)", k, vals[i], found[i], wv, wf)
		}
	}
	seqVerbs := st.Snapshot().RDMAVerbs() - before - groupVerbs
	if groupVerbs >= seqVerbs {
		t.Fatalf("GetMulti paid %d round trips, sequential Gets paid %d — no batching happened", groupVerbs, seqVerbs)
	}
}

// TestBSTGetMulti checks the level-synchronous batched descent against
// per-key Gets under the retry seqlock.
func TestBSTGetMulti(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeR().WithPipeline(16))
	bt, err := CreateBST(c, "btmg", Options{Create: testCreate, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := bt.Put(uint64(i*2654435761), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Drain(); err != nil {
		t.Fatal(err)
	}

	keys := []uint64{2654435761, 2 * 2654435761, 77, 149 * 2654435761, 0, 3 * 2654435761}
	vals, found, err := bt.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		wv, wf, err := bt.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if wf != found[i] || !bytes.Equal(wv, vals[i]) {
			t.Fatalf("key %d: GetMulti (%q,%v) != Get (%q,%v)", k, vals[i], found[i], wv, wf)
		}
	}

	// A reader handle must get the same answers through the seqlock.
	c2 := r.conn(2, core.ModeR().WithPipeline(16))
	btr, err := OpenBST(c2, "btmg", false, Options{Create: testCreate, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	rv, rf, err := btr.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if rf[i] != found[i] || !bytes.Equal(rv[i], vals[i]) {
			t.Fatalf("reader GetMulti mismatch at %d", i)
		}
	}
}

// TestPartitionedGetMultiFanout is the tentpole's ds-layer check: a
// multi-get over partitions on different back-ends runs inside one
// fan-out window, returns per-key-Get answers, and actually overlaps the
// doorbell groups across connections (FanoutSavedNS > 0).
func TestPartitionedGetMultiFanout(t *testing.T) {
	conns, _ := fanoutRig(t, 4, core.ModeR().WithPipeline(16))
	p, err := CreatePartitioned(conns, KindHashTable, "pfan", 4,
		Options{Create: testCreate, Buckets: 32, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for i := 1; i <= 400; i++ {
		k := uint64(i * 2654435761)
		if err := p.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = val(i)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}

	var keys []uint64
	for i := 1; i <= 64; i++ {
		keys = append(keys, uint64(i*2654435761))
	}
	keys = append(keys, 12345) // absent

	st := conns[0].Frontend().Stats()
	winBefore := st.FanoutWindows.Load()
	vals, found, err := p.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if st.FanoutWindows.Load() <= winBefore {
		t.Fatal("partitioned GetMulti did not open a fan-out window")
	}
	if st.FanoutSavedNS.Load() <= 0 {
		t.Fatal("cross-connection overlap saved no virtual time")
	}
	for i, k := range keys {
		want, ok := oracle[k]
		if ok != found[i] || !bytes.Equal(want, vals[i]) {
			t.Fatalf("key %d: GetMulti (%q,%v), oracle (%q,%v)", k, vals[i], found[i], want, ok)
		}
	}
}

// TestPartitionedPutMultiFlushAll checks the write path: PutMulti routes,
// FlushAll commits every partition inside one fan-out window, and the
// data survives a reopen (so the overlapped commit is a real commit).
func TestPartitionedPutMultiFlushAll(t *testing.T) {
	conns, bks := fanoutRig(t, 2, core.Mode{OpLog: true, Batch: 16, Pipeline: 8})
	p, err := CreatePartitioned(conns, KindHashTable, "pput", 4,
		Options{Create: testCreate, Buckets: 32, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	var vals [][]byte
	for i := 1; i <= 200; i++ {
		keys = append(keys, uint64(i*2654435761))
		vals = append(vals, val(i))
	}
	if err := p.PutMulti(keys, vals); err != nil {
		t.Fatal(err)
	}
	st := conns[0].Frontend().Stats()
	winBefore := st.FanoutWindows.Load()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st.FanoutWindows.Load() <= winBefore {
		t.Fatal("FlushAll did not open a fan-out window")
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	// Fresh front-end: only replayed state is visible.
	fe2 := core.NewFrontend(core.FrontendOptions{ID: 2, Mode: core.ModeR(), Profile: &zprof})
	var conns2 []*core.Conn
	for _, bk := range bks {
		c2, err := fe2.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		conns2 = append(conns2, c2)
	}
	p2, err := OpenSharded(conns2, "pput", false, Options{Create: testCreate, Buckets: 32, ValueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := p2.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !ok[i] || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("key %d lost across FlushAll+reopen", keys[i])
		}
	}
}

// TestPartitionedGetMultiAllKinds runs the partitioned multi-get parity
// check for every partitionable kind — walker-backed kinds go through the
// fan-out path, the rest through the per-key fallback.
func TestPartitionedGetMultiAllKinds(t *testing.T) {
	kinds := []struct {
		name string
		kind KVKind
	}{
		{"bst", KindBST}, {"bptree", KindBPTree}, {"skiplist", KindSkipList},
		{"hashtable", KindHashTable}, {"mvbst", KindMVBST}, {"mvbptree", KindMVBPTree},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			conns, _ := fanoutRig(t, 2, core.ModeR().WithPipeline(16))
			p, err := CreatePartitioned(conns, tc.kind, "pk-"+tc.name, 3,
				Options{Create: testCreate, Buckets: 32, ValueCap: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 90; i++ {
				if err := p.Put(uint64(i*7), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.DrainAll(); err != nil {
				t.Fatal(err)
			}
			keys := []uint64{7, 14, 630, 631, 9999, 35, 441}
			vals, found, err := p.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				wv, wf, err := p.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if wf != found[i] || !bytes.Equal(wv, vals[i]) {
					t.Fatalf("key %d: GetMulti (%q,%v) != Get (%q,%v)", k, vals[i], found[i], wv, wf)
				}
			}
		})
	}
}

// TestBucketMatchesShardOf is the router's property test: for both
// placements, bucket splits a random key batch exactly as per-key ShardOf
// routes it, keeps input order inside each group, and its orig index map
// scatters per-shard results back into input order.
func TestBucketMatchesShardOf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shared := range []bool{false, true} {
		for _, n := range []int{1, 3, 4, 8} {
			if shared && n&(n-1) != 0 {
				continue // top-bits placement needs a power of two
			}
			s := &Sharded{shards: make([]shardKV, n), shared: shared, bits: log2(n)}
			for round := 0; round < 50; round++ {
				keys := make([]uint64, rng.Intn(40))
				for i := range keys {
					keys[i] = rng.Uint64() >> uint(rng.Intn(64)) // dense and sparse, with repeats
				}
				groups, orig := s.bucket(keys)
				restored := make([]uint64, len(keys))
				seen := 0
				for si := range groups {
					if len(groups[si]) != len(orig[si]) {
						t.Fatalf("shared=%v n=%d: shard %d has %d keys, %d positions", shared, n, si, len(groups[si]), len(orig[si]))
					}
					for j, k := range groups[si] {
						if s.ShardOf(k) != si {
							t.Fatalf("shared=%v n=%d: key %d bucketed to shard %d, ShardOf says %d", shared, n, k, si, s.ShardOf(k))
						}
						if j > 0 && orig[si][j] <= orig[si][j-1] {
							t.Fatalf("shared=%v n=%d: shard %d group not in input order", shared, n, si)
						}
						restored[orig[si][j]] = k
						seen++
					}
				}
				if seen != len(keys) {
					t.Fatalf("shared=%v n=%d: bucketed %d of %d keys", shared, n, seen, len(keys))
				}
				for i, k := range keys {
					if restored[i] != k {
						t.Fatalf("shared=%v n=%d: orig map restored key %d at %d, want %d", shared, n, restored[i], i, k)
					}
				}
			}
		}
	}
}
