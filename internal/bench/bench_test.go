package bench

import (
	"testing"

	"asymnvm/internal/core"
)

// tiny keeps unit-test runs fast; the shape assertions here are the
// regression guard for the paper's qualitative claims.
func tiny() Scale {
	return Scale{Seed: 800, Ops: 300, Keys: 4000, TATPSubs: 120, Accounts: 120}
}

func kopsBy(rows []Row, series, label string) float64 {
	for _, r := range rows {
		if r.Series == series && (label == "" || r.Label == label) {
			return r.KOPS
		}
	}
	return -1
}

func TestTable2Shapes(t *testing.T) {
	rows, err := Table2(400)
	if err != nil {
		t.Fatal(err)
	}
	get := func(series string) float64 {
		for _, r := range rows {
			if r.Series == series {
				return r.Extra["alloc_MOPS"]
			}
		}
		return -1
	}
	glibc, pmem, rpc := get("Glibc"), get("Pmem"), get("RPC allocator")
	tt128, tt1024 := get("Two-tier (slab 128B)"), get("Two-tier (slab 1024B)")
	t.Logf("glibc=%.2f pmem=%.2f rpc=%.2f tt128=%.2f tt1024=%.2f", glibc, pmem, rpc, tt128, tt1024)
	if !(glibc > pmem && pmem > rpc) {
		t.Fatalf("allocator ordering broken: glibc=%.2f pmem=%.2f rpc=%.2f", glibc, pmem, rpc)
	}
	if !(tt1024 > tt128 && tt128 > rpc) {
		t.Fatalf("two-tier must beat raw RPC and grow with slab size: %.2f %.2f %.2f", tt128, tt1024, rpc)
	}
}

func TestTable3CellLadder(t *testing.T) {
	// The optimization ladder on one structure: naive < R ≤ RC ≤ RCB.
	sc := tiny()
	var got []float64
	for _, cfg := range table3Configs() {
		if cfg.symmetric || !supportsConfig("BST", cfg.series) {
			continue
		}
		row, err := measureCell("BST", cfg, sc, 100)
		if err != nil {
			t.Fatalf("%s: %v", cfg.series, err)
		}
		t.Logf("BST %-14s %8.1f KOPS %6.0f B written/op", cfg.series, row.KOPS, row.Extra["write_b_per_op"])
		got = append(got, row.KOPS)
	}
	// got = [naive, R, RC, RCB]
	if !(got[3] > got[0]*2) {
		t.Fatalf("RCB should beat naive by a wide margin: naive=%.1f rcb=%.1f", got[0], got[3])
	}
	if !(got[2] > got[1]) {
		t.Fatalf("cache should beat plain R: r=%.1f rc=%.1f", got[1], got[2])
	}
}

func TestSymmetricCellRuns(t *testing.T) {
	sc := tiny()
	row, err := measureCell("BST", configCell{series: "Symmetric", symmetric: true, mode: symMode(1)}, sc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if row.KOPS <= 0 {
		t.Fatal("symmetric cell produced no throughput")
	}
	t.Logf("symmetric BST %.1f KOPS", row.KOPS)
}

func TestCacheBenchShapes(t *testing.T) {
	rows := CacheBench(60000)
	get := func(series string) float64 {
		for _, r := range rows {
			if r.Series == series {
				return r.Extra["missPct"]
			}
		}
		return -1
	}
	hyb, lru, rr := get("Hybrid"), get("LRU"), get("RR")
	t.Logf("miss%%: hybrid=%.1f lru=%.1f rr=%.1f", hyb, lru, rr)
	if !(hyb < rr) {
		t.Fatalf("hybrid must beat random replacement: %.1f vs %.1f", hyb, rr)
	}
	if hyb > lru+10 {
		t.Fatalf("hybrid should be close to LRU: %.1f vs %.1f", hyb, lru)
	}
}

func TestLockBenchShapes(t *testing.T) {
	rows, err := LockBench(600)
	if err != nil {
		t.Fatal(err)
	}
	w10 := kopsAt(rows, "writer", 10)
	r10 := kopsAt(rows, "reader(avg)", 10)
	t.Logf("10%% write: writer=%.1f reader=%.1f", w10, r10)
	if w10 <= 0 || r10 <= 0 {
		t.Fatal("lock bench produced no throughput")
	}
	// The write-preferred lock favours the writer.
	if w10 < r10 {
		t.Fatalf("writer should out-run a single reader: w=%.1f r=%.1f", w10, r10)
	}
}

func kopsAt(rows []Row, series string, x float64) float64 {
	for _, r := range rows {
		if r.Series == series && r.X == x {
			return r.KOPS
		}
	}
	return -1
}

func TestCostModel(t *testing.T) {
	rows := CostModel(100, nil)
	var sym, asym float64
	for _, r := range rows {
		if r.Series == "Symmetric" {
			sym = r.Extra["devices"]
		} else {
			asym = r.Extra["devices"]
		}
	}
	if !(asym < sym/2) {
		t.Fatalf("asymmetric should need far fewer devices: %v vs %v", asym, sym)
	}
}

func TestFormatRows(t *testing.T) {
	out := FormatRows([]Row{
		{Experiment: "x", Series: "a", Label: "l", X: 1, KOPS: 2, Extra: map[string]float64{"m": 3}},
		{Experiment: "x", Series: "b", KOPS: 4},
	})
	if out == "" || len(out) < 20 {
		t.Fatal("formatting produced nothing")
	}
}

func symMode(batch int) core.Mode { return core.Mode{OpLog: true, Batch: batch} }
