package ds

import (
	"fmt"
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
