package bench

import (
	"errors"
	"flag"
	"testing"
)

// `make bench-cpu` runs these with -benchtime=100x: a fast wall-clock
// smoke over the zero-alloc hot paths. The same bodies power
// HotpathSweep (the BENCH_hotpath.json generator), so a number that
// looks wrong here can be reproduced exactly with
// `go test -bench Hotpath -benchtime=... ./internal/bench/`.

func BenchmarkHotpathSPSCPushPop(b *testing.B)  { b.ReportAllocs(); hotSPSCPushPop(b) }
func BenchmarkHotpathChanPushPop(b *testing.B)  { b.ReportAllocs(); hotChanPushPop(b) }
func BenchmarkHotpathSPSCRing(b *testing.B)     { b.ReportAllocs(); hotSPSCHandoff(b) }
func BenchmarkHotpathChanHandoff(b *testing.B)  { b.ReportAllocs(); hotChanHandoff(b) }
func BenchmarkHotpathMPSCRing(b *testing.B)     { b.ReportAllocs(); hotMPSCHandoff(b) }
func BenchmarkHotpathChanMPSC(b *testing.B)     { b.ReportAllocs(); hotChanMPSCHandoff(b) }
func BenchmarkHotpathDoorbell(b *testing.B)     { b.ReportAllocs(); hotDoorbell(b) }
func BenchmarkHotpathTxRoundTrip(b *testing.B)  { b.ReportAllocs(); hotTxRoundTrip(b) }
func BenchmarkHotpathOpRoundTrip(b *testing.B)  { b.ReportAllocs(); hotOpRoundTrip(b) }
func BenchmarkHotpathProtoRequest(b *testing.B) { b.ReportAllocs(); hotProtoRequest(b) }
func BenchmarkHotpathProtoResponse(b *testing.B) {
	b.ReportAllocs()
	hotProtoResponse(b)
}
func BenchmarkHotpathCacheFloor(b *testing.B)      { b.ReportAllocs(); hotCacheFloor(b) }
func BenchmarkHotpathCacheAdmitEvict(b *testing.B) { b.ReportAllocs(); hotCacheAdmitEvict(b) }
func BenchmarkHotpathBPTreePut(b *testing.B)       { b.ReportAllocs(); hotBPTreePut(b) }
func BenchmarkHotpathHashPut(b *testing.B)         { b.ReportAllocs(); hotHashPut(b) }
func BenchmarkHotpathHashGet(b *testing.B)         { b.ReportAllocs(); hotHashGet(b) }
func BenchmarkHotpathHashGetMulti(b *testing.B)    { b.ReportAllocs(); hotHashGetMulti(b) }
func BenchmarkHotpathServeRequest(b *testing.B)    { b.ReportAllocs(); hotServeRequest(b) }

// TestHotpathAllocs is the allocation gate, and it does not depend on the
// host: every hot-path cell runs a fixed 200 iterations and fails on
// allocs/op > 0. The sweep's other gate, the speed-up ratios, reads host
// time and stays with `make bench-cpu`.
func TestHotpathAllocs(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("200x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(old)
	for _, c := range hotCells {
		r := testing.Benchmark(c.fn)
		if r.N != 200 {
			t.Fatalf("%s %s ran %d iterations, want 200", c.series, c.label, r.N)
		}
		t.Logf("%s %s: %d allocations in %d iterations", c.series, c.label, r.MemAllocs, r.N)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s %s: %d allocs/op, want 0", c.series, c.label, a)
		}
	}
}

// TestHotpathSweep pins what of the sweep repeats on any host: the row
// schema the checked-in BENCH_hotpath.json relies on and 0 allocs/op in
// every cell (the sweep's own ErrHotpathAllocs). The speed-up floors are
// ratios of host times, which do not repeat on a small shared box; `make
// bench-cpu` enforces them.
func TestHotpathSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock sweep; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock sweep; ratios measure the race detector, not the queues")
	}
	rows, err := HotpathSweep()
	if errors.Is(err, ErrHotpathFloor) {
		t.Logf("not enforced here: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"spsc-ring|pushpop": false, "channel|pushpop": false,
		"spsc-ring|handoff": false, "channel|handoff": false,
		"mpsc-ring|handoff-4p": false, "channel|handoff-4p": false,
		"doorbell|ring+poll":  false,
		"logrec|tx-roundtrip": false, "logrec|op-roundtrip": false,
		"proto|request": false, "proto|response": false,
		"cache|floor": false, "cache|admit-evict": false,
		"bptree|put-rcb64-pipe8": false, "hashtable|put-rc": false,
		"hashtable|get-rc": false, "hashtable|getmulti8-rc": false, "serve|request": false,
		"spsc-vs-channel|speedup": false,
	}
	for _, r := range rows {
		if r.Experiment != "hotpath" {
			t.Fatalf("unexpected experiment %q", r.Experiment)
		}
		want[r.Series+"|"+r.Label] = true
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("sweep lost row %q", k)
		}
	}
}
