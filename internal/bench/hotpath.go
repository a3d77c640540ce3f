// Hot-path microbenchmarks: unlike every other experiment in this
// package, these measure HOST WALL-CLOCK time, not the virtual clock.
// They pin the real cost of the zero-alloc plumbing the simulator's hot
// paths ride on — the lock-free completion rings, the doorbell
// park/unpark primitive, and the AppendTo-style record/frame codecs —
// against the idiomatic Go baselines they replaced (buffered channels,
// encode-then-frame copies), and of two whole operations built on it: a
// B+Tree put and a hash-table put, op record to overlay prune. Absolute
// ns/op varies across hosts, so the checked-in BENCH_hotpath.json is diffed
// with a generous threshold; the allocation counts do not, and plain `go
// test` enforces them at a fixed iteration count (TestHotpathAllocs).
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"asymnvm/internal/arena"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/logrec"
	"asymnvm/internal/ring"
	"asymnvm/internal/serve"
)

// hotCap sizes the handoff queues; matches the rdma completion ring's
// typical depth class (power of two, far larger than the pipe depth).
const hotCap = 1024

// The acceptance gates: HotpathSweep fails with ErrHotpathFloor (rows
// still returned) when the SPSC ring does not beat the buffered channel
// by these factors. They are ratios of host times, which a busy or small
// host moves: `make bench-cpu` and `make bench-smoke` enforce them, the
// tier-1 test only the row schema and the allocation counts.
//
//   - handoffSpeedupFloor guards the cross-goroutine handoff — the
//     headline claim of the ring refactor. It only arms on hosts with
//     real parallelism: on one CPU the "handoff" is a scheduler
//     benchmark, not a queue benchmark.
//   - pushpopSpeedupFloor guards the uncontended push+pop pair (the
//     steady-state shape: Poll draining completions in-thread, the
//     writer finding its queue non-empty) and arms everywhere. Its
//     floor is lower because on virtualized single-CPU hosts the pair
//     cost is dominated by the two unavoidable publication stores,
//     which cost the same XCHG as the channel's fast-path locking.
const (
	handoffSpeedupFloor = 2.0
	pushpopSpeedupFloor = 1.5
)

// ErrHotpathFloor marks a HotpathSweep failure that is a missed speed-up
// floor, as opposed to a broken sweep.
var ErrHotpathFloor = errors.New("hotpath: speed-up floor missed")

// ErrHotpathAllocs marks a HotpathSweep cell that allocated: every hot
// path here is allocation-free by contract, on any host.
var ErrHotpathAllocs = errors.New("hotpath: a zero-alloc path allocated")

// hotSPSCHandoff streams b.N values through an SPSC ring, consumer on
// its own goroutine. The timer covers the full handoff: all pushes plus
// waiting for the drain.
func hotSPSCHandoff(b *testing.B) {
	q := ring.NewSPSC[uint64](hotCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < b.N; n++ {
			for {
				if _, ok := q.Pop(); ok {
					break
				}
				runtime.Gosched()
			}
		}
	}()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for !q.Push(uint64(n)) {
			runtime.Gosched()
		}
	}
	<-done
}

// hotChanHandoff is the baseline the ring replaced: a buffered channel
// of the same capacity, same producer/consumer shape.
func hotChanHandoff(b *testing.B) {
	ch := make(chan uint64, hotCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < b.N; n++ {
			<-ch
		}
	}()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ch <- uint64(n)
	}
	<-done
}

// hotSPSCPushPop measures one uncontended push+pop pair from a single
// goroutine — the per-op overhead the hot paths pay when the other side
// is keeping up, which is the steady state the rings were built for.
func hotSPSCPushPop(b *testing.B) {
	q := ring.NewSPSC[uint64](hotCap)
	for n := 0; n < b.N; n++ {
		if !q.Push(uint64(n)) {
			b.Fatal("push failed on empty ring")
		}
		if _, ok := q.Pop(); !ok {
			b.Fatal("pop failed on non-empty ring")
		}
	}
}

// hotChanPushPop is the uncontended channel baseline: one buffered
// send+receive pair per op, no goroutine switch.
func hotChanPushPop(b *testing.B) {
	ch := make(chan uint64, hotCap)
	for n := 0; n < b.N; n++ {
		ch <- uint64(n)
		<-ch
	}
}

// hotMPSCProducers is the fan-in width for the MPSC handoff benches —
// the serve path's shape (several request handlers, one writer).
const hotMPSCProducers = 4

// hotMPSCHandoff streams b.N values through the Vyukov MPSC ring from
// hotMPSCProducers goroutines into the bench goroutine.
func hotMPSCHandoff(b *testing.B) {
	q := ring.NewMPSC[uint64](hotCap)
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := 0; p < hotMPSCProducers; p++ {
		share := b.N / hotMPSCProducers
		if p == 0 {
			share += b.N % hotMPSCProducers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for !q.Push(uint64(i)) {
					runtime.Gosched()
				}
			}
		}(share)
	}
	for n := 0; n < b.N; n++ {
		for {
			if _, ok := q.Pop(); ok {
				break
			}
			runtime.Gosched()
		}
	}
	wg.Wait()
}

// hotChanMPSCHandoff is the multi-producer channel baseline.
func hotChanMPSCHandoff(b *testing.B) {
	ch := make(chan uint64, hotCap)
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := 0; p < hotMPSCProducers; p++ {
		share := b.N / hotMPSCProducers
		if p == 0 {
			share += b.N % hotMPSCProducers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ch <- uint64(i)
			}
		}(share)
	}
	for n := 0; n < b.N; n++ {
		<-ch
	}
	wg.Wait()
}

// hotDoorbell measures the uncontended ring+poll cycle — the cost a
// front-end kick pays when the back-end service loop is already awake.
func hotDoorbell(b *testing.B) {
	d := ring.NewDoorbell()
	for n := 0; n < b.N; n++ {
		d.Ring()
		if !d.Poll() {
			b.Fatal("doorbell lost a ring")
		}
	}
}

// hotTxRoundTrip encodes and decodes one two-entry transaction record
// through the reused-buffer AppendTo/DecodeTxInto pair — the replayer's
// per-transaction inner loop.
func hotTxRoundTrip(b *testing.B) {
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	rec := logrec.TxRecord{
		DSSlot:  3,
		Abs:     4096,
		CoverOp: 512,
		Entries: []logrec.MemEntry{
			{Flag: logrec.FlagInline, Addr: 1 << 20, Len: 64, Value: val},
			{Flag: logrec.FlagInline, Addr: 2 << 20, Len: 64, Value: val},
		},
	}
	var buf []byte
	var dec logrec.TxRecord
	var a arena.Arena
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf = rec.AppendTo(buf[:0])
		if _, err := logrec.DecodeTxInto(&dec, buf, rec.Abs, &a); err != nil {
			b.Fatal(err)
		}
		a.Reset()
	}
}

// hotOpRoundTrip does the same for an operation-log record.
func hotOpRoundTrip(b *testing.B) {
	params := make([]byte, 48)
	for i := range params {
		params[i] = byte(i)
	}
	rec := logrec.OpRecord{DSSlot: 3, OpType: 2, Abs: 8192, Params: params}
	var buf []byte
	var dec logrec.OpRecord
	var a arena.Arena
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf = rec.AppendTo(buf[:0])
		if _, err := logrec.DecodeOpInto(&dec, buf, rec.Abs, &a); err != nil {
			b.Fatal(err)
		}
		a.Reset()
	}
}

// hotProtoRequest frames and decodes one Put request through the
// single-pass AppendFramed / DecodeRequestInto pair — the serve path's
// per-request codec cost without the socket.
func hotProtoRequest(b *testing.B) {
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	req := serve.Request{Op: serve.OpPut, ID: 7, Tenant: 2, BudgetNS: 1 << 20, Key: 0xfeedbeef, Val: val}
	var buf []byte
	var dec serve.Request
	var a arena.Arena
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var err error
		buf, err = req.AppendFramed(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := serve.DecodeRequestInto(&dec, buf[4:], &a); err != nil {
			b.Fatal(err)
		}
		a.Reset()
	}
}

// hotProtoResponse frames and decodes one found-Get response.
func hotProtoResponse(b *testing.B) {
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	resp := serve.Response{Status: serve.StatusOK, ID: 7, Found: true, Val: val}
	var buf []byte
	var dec serve.Response
	var a arena.Arena
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var err error
		buf, err = resp.AppendFramed(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := serve.DecodeResponseInto(&dec, buf[4:], &a); err != nil {
			b.Fatal(err)
		}
		a.Reset()
	}
}

// hotCacheEntries is the keyed population of the cache cells: what a 1 MB
// cache holds of 16-byte skip-list headers.
const hotCacheEntries = 1 << 16

// hotKeyedCache fills a cache to capacity with keyed 16-byte images under
// scattered order keys, and returns it with the next unused address.
func hotKeyedCache() (*core.Cache, uint64) {
	c := core.NewCache(16*hotCacheEntries, core.PolicyHybrid, nil)
	img := make([]byte, 16)
	addr := uint64(1)
	for ; addr <= hotCacheEntries; addr++ {
		c.PutKeyed(addr, img, 208, 1, core.EpochAlways, addr*0x9E3779B97F4A7C15, uint8(addr%4))
	}
	return c, addr
}

// hotCacheFloor searches the ordered view of a full cache: the start of
// every warm skip-list descent.
func hotCacheFloor(b *testing.B) {
	c, _ := hotKeyedCache()
	b.ResetTimer()
	k := uint64(0)
	for i := 0; i < b.N; i++ {
		k += 0x9E3779B97F4A7C15
		if _, _, _, ok := c.Floor(1, k|1<<63, 0, core.EpochAlways); !ok {
			b.Fatal("no entry at or below a key in the upper half")
		}
	}
}

// hotCacheAdmitEvict admits into a full cache: one eviction (32 sampled
// candidates, both indexes) and one insertion per operation, built from
// recycled parts.
func hotCacheAdmitEvict(b *testing.B) {
	c, addr := hotKeyedCache()
	img := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutKeyed(addr, img, 208, 1, core.EpochAlways, addr*0x9E3779B97F4A7C15, uint8(addr%4))
		addr++
	}
}

// hotPutWarm is the number of puts a whole-operation cell runs before its
// timer starts: enough to bring the cache to its steady state and take the
// handle past its first overlay prunes (one per 48 commit flushes), which
// prime its free lists. What is timed is then the steady state, with every
// commit flush, hint persist and prune that falls due.
const hotPutWarm = 1 << 14

// hotPut times Put under uniform keys in [1, keys] on the structure create
// builds on a one-back-end cluster.
func hotPut(b *testing.B, mode core.Mode, keys uint64, create func(*core.Conn) (ds.KV, error)) {
	cl, err := newAsymCluster(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	_, conns, err := cl.NewFrontend(1, mode)
	if err != nil {
		b.Fatal(err)
	}
	kv, err := create(conns[0])
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	x := uint64(0x9E3779B97F4A7C15)
	put := func() {
		x = hotXorshift(x)
		if err := kv.Put(x%keys+1, val); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < hotPutWarm; i++ {
		put()
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		put()
	}
}

// hotBPTreePut is the paper's headline cell: batch 64 behind a depth-8
// pipeline. The warm-up fills two thirds of the key space, so inserts and
// their splits stay in the mix, and the cache holds a tenth of the leaves,
// so a descent's views are evicted under it.
func hotBPTreePut(b *testing.B) {
	hotPut(b, core.ModeRCB(32<<10, 64).WithPipeline(8), hotPutWarm, func(c *core.Conn) (ds.KV, error) {
		return ds.CreateBPTree(c, "hot", ds.Options{})
	})
}

// hotHashPut commits every put on its own. The table is full after the
// warm-up and the cache holds all of it — the serving tier's shape: an
// insert's first-touch cache entry and a churning cache's mixed-size
// admissions allocate, and are the cache's to pin, not a put's.
func hotHashPut(b *testing.B) {
	hotPut(b, core.ModeRC(1<<20), hotPutWarm/8, func(c *core.Conn) (ds.KV, error) {
		return ds.CreateHashTable(c, "hot", ds.Options{})
	})
}

// hotReadKeys is the population of the read and serving cells: a table the
// 1 MB cache holds whole, the serving tier's shape.
const hotReadKeys = hotPutWarm / 8

// hotXorshift steps the cells' key generator.
func hotXorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// hotTable builds a hash table of hotReadKeys 64-byte values behind a cache
// that fits it, drained, on a one-back-end cluster the caller stops.
func hotTable(b *testing.B) (*core.Frontend, *ds.HashTable, func()) {
	cl, err := newAsymCluster(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	fe, conns, err := cl.NewFrontend(1, core.ModeRC(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	ht, err := ds.CreateHashTable(conns[0], "hot", ds.Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	for k := uint64(1); k <= hotReadKeys; k++ {
		if err := ht.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	if err := ht.Drain(); err != nil {
		b.Fatal(err)
	}
	return fe, ht, cl.Stop
}

// hotHashGet looks a key up into a buffer the caller keeps: the whole of a
// served get below the tier.
func hotHashGet(b *testing.B) {
	_, ht, stop := hotTable(b)
	defer stop()
	dst := make([]byte, 0, 64)
	x := uint64(0x9E3779B97F4A7C15)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x = hotXorshift(x)
		v, ok, err := ht.GetInto(x%hotReadKeys+1, dst[:0])
		if err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
		dst = v
	}
}

// hotHashGetMulti looks eight keys up in the table's own scratch.
func hotHashGetMulti(b *testing.B) {
	_, ht, stop := hotTable(b)
	defer stop()
	keys := make([]uint64, 8)
	x := uint64(0x9E3779B97F4A7C15)
	lookup := func() {
		for i := range keys {
			x = hotXorshift(x)
			keys[i] = x%hotReadKeys + 1
		}
		if _, found, err := ht.GetMulti(keys); err != nil || !found[7] {
			b.Fatalf("multi-get: err=%v", err)
		}
	}
	lookup() // sizes the table's scratch
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		lookup()
	}
}

// hotServeRequest runs the benchmark's serving mix — 14 gets, 4 puts, one
// multi-get and one multi-put of 8 keys in 20, 64-byte values — through the
// whole tier in process: decode into a recycled item, admission, the run
// queue, the executor's operation, the response encoded into a frame the
// reply recycles. The request payloads are framed before the timer starts and
// there is no socket, so ns/op is the tier's own.
func hotServeRequest(b *testing.B) {
	fe, ht, stop := hotTable(b)
	defer stop()
	srv := serve.New(serve.Backends{FE: fe, KV: ht}, serve.DefaultOptions())
	val := make([]byte, 64)
	keys, vals := make([]uint64, 8), make([][]byte, 8)
	for i := range vals {
		vals[i] = val
	}
	x := uint64(0x9E3779B97F4A7C15)
	key := func() uint64 { x = hotXorshift(x); return x%hotReadKeys + 1 }
	payloads := make([][]byte, 1000)
	for i := range payloads {
		req := serve.Request{ID: uint64(i + 1), Tenant: 1}
		switch p := i % 20; {
		case p < 14:
			req.Op, req.Key = serve.OpGet, key()
		case p < 18:
			req.Op, req.Key, req.Val = serve.OpPut, key(), val
		default:
			for j := range keys {
				keys[j] = key()
			}
			req.Op, req.Keys = serve.OpGetMulti, keys
			if p == 19 {
				req.Op, req.Vals = serve.OpPutMulti, vals
			}
		}
		payloads[i] = req.Encode()
	}
	var frame []byte
	status := serve.StatusOK
	reply := func(r serve.Response) {
		status = r.Status
		frame, _ = r.AppendFramed(frame[:0])
	}
	// One pass sizes the item, the frame and the table's scratch, and takes the
	// handle past the overlay prunes that prime its free lists.
	for i := 0; i < hotPutWarm; i++ {
		srv.Inline(payloads[i%len(payloads)], reply)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		srv.Inline(payloads[n%len(payloads)], reply)
		if status != serve.StatusOK || len(frame) == 0 {
			b.Fatalf("request %d: status %d, %d-byte frame", n, status, len(frame))
		}
	}
}

// hotCells is every hot-path microbenchmark, in BENCH_hotpath.json's row
// order. All of them are allocation-free by contract.
var hotCells = []struct {
	series string
	label  string
	fn     func(*testing.B)
}{
	{"spsc-ring", "pushpop", hotSPSCPushPop},
	{"channel", "pushpop", hotChanPushPop},
	{"spsc-ring", "handoff", hotSPSCHandoff},
	{"channel", "handoff", hotChanHandoff},
	{"mpsc-ring", "handoff-4p", hotMPSCHandoff},
	{"channel", "handoff-4p", hotChanMPSCHandoff},
	{"doorbell", "ring+poll", hotDoorbell},
	{"logrec", "tx-roundtrip", hotTxRoundTrip},
	{"logrec", "op-roundtrip", hotOpRoundTrip},
	{"proto", "request", hotProtoRequest},
	{"proto", "response", hotProtoResponse},
	{"cache", "floor", hotCacheFloor},
	{"cache", "admit-evict", hotCacheAdmitEvict},
	{"bptree", "put-rcb64-pipe8", hotBPTreePut},
	{"hashtable", "put-rc", hotHashPut},
	{"hashtable", "get-rc", hotHashGet},
	{"hashtable", "getmulti8-rc", hotHashGetMulti},
	{"serve", "request", hotServeRequest},
}

// HotpathSweep runs every hot-path microbenchmark under
// testing.Benchmark and returns one row per cell. KOPS here is real
// (wall-clock) thousands of operations per second; Extra carries ns/op
// and the measured allocations per op. On a multi-core host the sweep
// fails if the SPSC ring does not beat the channel handoff by at least
// spscSpeedupFloor — the acceptance gate for the ring refactor — and on
// any host if a cell allocates (ErrHotpathAllocs).
func HotpathSweep() ([]Row, error) {
	cells := hotCells
	rows := make([]Row, 0, len(cells))
	nsOf := make(map[string]float64, len(cells))
	for _, c := range cells {
		r := testing.Benchmark(c.fn)
		ns := float64(r.NsPerOp())
		if ns <= 0 {
			ns = 0.5 // sub-ns ops: clamp so KOPS stays finite
		}
		nsOf[c.series+"/"+c.label] = ns
		rows = append(rows, Row{
			Experiment: "hotpath",
			Series:     c.series,
			Label:      c.label,
			KOPS:       1e6 / ns, // ops/sec ÷ 1000
			Extra: map[string]float64{
				"ns_op":     ns,
				"allocs_op": float64(r.AllocsPerOp()),
				"bytes_op":  float64(r.AllocedBytesPerOp()),
			},
		})
	}
	for _, r := range rows {
		if a := r.Extra["allocs_op"]; a != 0 {
			return rows, fmt.Errorf("%w: %s %s, %v allocs/op", ErrHotpathAllocs, r.Series, r.Label, a)
		}
	}
	pushpop := nsOf["channel/pushpop"] / nsOf["spsc-ring/pushpop"]
	handoff := nsOf["channel/handoff"] / nsOf["spsc-ring/handoff"]
	rows = append(rows, Row{
		Experiment: "hotpath",
		Series:     "spsc-vs-channel",
		Label:      "speedup",
		KOPS:       0, // ratio row, excluded from benchcmp's throughput diff
		Extra:      map[string]float64{"pushpop": pushpop, "handoff": handoff},
	})
	if pushpop < pushpopSpeedupFloor {
		return rows, fmt.Errorf("%w: SPSC ring push+pop only %.2fx faster than channel (floor %.1fx): ring %.1f ns/op, channel %.1f ns/op",
			ErrHotpathFloor, pushpop, pushpopSpeedupFloor, nsOf["spsc-ring/pushpop"], nsOf["channel/pushpop"])
	}
	if runtime.GOMAXPROCS(0) >= 2 && handoff < handoffSpeedupFloor {
		return rows, fmt.Errorf("%w: SPSC ring handoff only %.2fx faster than channel (floor %.1fx): ring %.1f ns/op, channel %.1f ns/op",
			ErrHotpathFloor, handoff, handoffSpeedupFloor, nsOf["spsc-ring/handoff"], nsOf["channel/handoff"])
	}
	return rows, nil
}
