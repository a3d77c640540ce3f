package ds

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"asymnvm/internal/core"
)

// The byte half of the write-cost contract whose round-trip half
// roundtrip_test.go pins: exactly how many bytes one warm write puts on the
// fabric — its op record plus the commit record that carries its memory
// log. A warm writer (everything on the path in its overlay or cache)
// issues no other write-class verb, so the figure is a function of the
// structure's layout and of what its put logs, nothing else; a row that
// moves is a change to what that structure writes.

const (
	wbKeys   = 512 // populated: the even keys 2..1024, in a seeded order
	wbUpdate = 500
	wbValue  = 64 // the default capacity and the benchmark's value size: 72 user bytes per put
)

func wbVal(seed int) []byte {
	return bytes.Repeat([]byte{byte(seed)}, wbValue)
}

// wbRow is what an insert and an update of one structure cost, {insert,
// update}, in ModeRC (one commit per put) and in
// ModeRCB(…, 64).WithPipeline(8) (the put's op record and the flush that
// follows it). -1: the structure has no such operation.
type wbRow struct {
	kind    string // "Stack", "Queue" or one of makeKV's
	rc, rcb [2]int64
}

// The figures in the comments are from when every rnvm_write logged its
// whole unit; a row without one is a structure whose put writes only whole
// new units or standalone words, then as now.
var wbRows = []wbRow{
	{"Stack", [2]int64{236, -1}, [2]int64{236, -1}},
	// Was 329: the enqueue relinks the old tail, 8 B of an 80 B unit.
	{"Queue", [2]int64{257, -1}, [2]int64{257, -1}},
	{"HashTable", [2]int64{244, 223}, [2]int64{244, 223}},
	// Was {564, 343}: the insert swings next[0:2) of one predecessor (16 B
	// of a 208 B unit), the update replaces 64 value bytes.
	{"SkipList", [2]int64{372, 199}, [2]int64{372, 199}},
	// Was {340, 231}: a child link is 8 B of a 96 B unit.
	{"BST", [2]int64{252, 199}, [2]int64{252, 199}},
	// Inserts were 740 and 684: this one lands low in its leaf and shifts
	// 25 of the 520 B unit's slot pairs; the update rewrites the value blob
	// alone, then as now. Batched, the blob is a pointer into the op record
	// (§4.3's Flag), 56 B less.
	{"BPTree", [2]int64{648, 207}, [2]int64{592, 151}},
	{"MVBST", [2]int64{1342, 1233}, [2]int64{1342, 1233}},
	{"MVBPTree", [2]int64{1290, 1290}, [2]int64{1290, 1290}},
}

// wbBuild creates the structure and returns its put (a push or an enqueue
// ignores the key) and its flush.
func wbBuild(c *core.Conn, kind string) (func(key uint64, v []byte) error, func() error, error) {
	switch kind {
	case "Stack":
		s, err := CreateStack(c, kind, crashOpts())
		return func(_ uint64, v []byte) error { return s.Push(v) }, s.Flush, err
	case "Queue":
		q, err := CreateQueue(c, kind, crashOpts())
		return func(_ uint64, v []byte) error { return q.Enqueue(v) }, q.Flush, err
	}
	kv, err := makeKV(c, kind)
	if err != nil {
		return nil, nil, err
	}
	return kv.Put, kv.Handle().Flush, nil
}

func TestWriteBytesPerPut(t *testing.T) {
	modes := []struct {
		name string
		mode core.Mode
		want func(wbRow) [2]int64
	}{
		{"RC", core.ModeRC(4 << 20), func(r wbRow) [2]int64 { return r.rc }},
		{"RCB64/pipe8", core.ModeRCB(4<<20, 64).WithPipeline(8), func(r wbRow) [2]int64 { return r.rcb }},
	}
	for _, row := range wbRows {
		for _, m := range modes {
			row, m := row, m
			t.Run(fmt.Sprintf("%s/%s", row.kind, m.name), func(t *testing.T) {
				r := newRig(t)
				c := r.conn(1, m.mode)
				put, flush, err := wbBuild(c, row.kind)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range rand.New(rand.NewSource(17)).Perm(wbKeys) {
					if err := put(uint64(2*i+2), wbVal(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := flush(); err != nil {
					t.Fatal(err)
				}
				// One put and the flush that makes it durable. A put that
				// refills the allocator's slab, or falls on a lazy release
				// (which keeps host time), pays that RPC's request on top;
				// the contract is the write path's, so the next put is
				// measured instead. The back-end counts the RPCs.
				st, rpcs := c.Frontend().Stats(), &r.bk.Stats().RPCCalls
				measure := func(key func(try int) uint64) int64 {
					for try := 0; try < 8; try++ {
						before, calls := st.BytesWrite.Load(), rpcs.Load()
						if err := put(key(try), wbVal(200+try)); err != nil {
							t.Fatal(err)
						}
						if err := flush(); err != nil {
							t.Fatal(err)
						}
						if rpcs.Load() == calls {
							return st.BytesWrite.Load() - before
						}
					}
					t.Fatal("every measured put called the allocator's RPC")
					return 0
				}
				want := m.want(row)
				got := [2]int64{measure(func(try int) uint64 { return uint64(501 + 2*try) }), -1}
				if want[1] >= 0 {
					got[1] = measure(func(int) uint64 { return wbUpdate })
				}
				if got != want {
					t.Errorf("{insert, update} put %v bytes on the fabric, pinned %v", got, want)
				}
			})
		}
	}
}
