package chaos

import (
	"runtime"
	"strings"
	"testing"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Ops = 600
	cfg.Accounts = 10
	cfg.Keys = 64
	return cfg
}

// TestSoakInvariantsHold runs a small soak with the full failure menu —
// two permanent crashes (mirror promotions), two crash-restarts, four
// partition windows, verb drops/truncations/delays, lagged mirrors — and
// requires zero invariant violations plus at least the scheduled number
// of failovers.
func TestSoakInvariantsHold(t *testing.T) {
	rep, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("soak reported %d violations:\n%s", rep.Violations, rep.String())
	}
	if rep.Checks < 8 {
		t.Fatalf("soak performed only %d checks, want per-recovery + final + rebuild", rep.Checks)
	}
	if rep.Stats.Failovers < 3 {
		t.Fatalf("soak drove %d failovers, want >= 3 (2 promotions + 2 restarts scheduled)", rep.Stats.Failovers)
	}
	if rep.Stats.VerbRetries == 0 {
		t.Fatal("verb faults were injected but nothing was retried")
	}
}

// TestSoakDeterministic is the reproducibility contract: two runs with
// the same seed must produce byte-identical reports — same fault event
// log digest, same verify lines, same final counters.
func TestSoakDeterministic(t *testing.T) {
	a, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("fault log digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
	if a.Stats != b.Stats {
		t.Fatalf("final stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSoakReleasesCluster pins that a finished soak leaves nothing
// reachable: after further soaks and a GC, the goroutine count and the
// live heap are back at the one-soak baseline. Every promotion and
// restart replaces replica replayers; one left running outlives
// Cluster.Stop and pins a whole device image (256 MB) per soak, which is
// what made `-count` runs of the determinism tests run out of memory.
func TestSoakReleasesCluster(t *testing.T) {
	settled := func() (int, uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	soak := func() {
		t.Helper()
		rep, err := Run(smallConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Failovers < 3 {
			t.Fatalf("soak drove %d failovers; the release check needs promotions and restarts", rep.Stats.Failovers)
		}
	}
	soak()
	g1, h1 := settled()
	soak()
	soak()
	gN, hN := settled()
	if gN > g1 {
		t.Errorf("goroutines grew from %d after one soak to %d after three: a replaced node's service loop is still parked", g1, gN)
	}
	const slack = 32 << 20 // well under one device image
	if hN > h1+slack {
		t.Errorf("live heap grew from %d MB after one soak to %d MB after three: finished soaks stay reachable", h1>>20, hN>>20)
	}
}

// TestSoakPipelinedDeterministic soaks with the posted-verb pipeline
// enabled on the writer (async op-log flushes, one-doorbell commit
// groups) under the full failure menu, and requires the same contract
// as the synchronous soak: zero violations and byte-identical reports
// per seed, with the pipeline demonstrably active.
func TestSoakPipelinedDeterministic(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Pipeline = 16
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 {
		t.Fatalf("pipelined soak reported %d violations:\n%s", a.Violations, a.String())
	}
	if a.Stats.PostedVerbs == 0 || a.Stats.DoorbellGroups == 0 {
		t.Fatalf("pipeline enabled but no WRs were posted: %+v", a.Stats)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("fault log digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.String() != b.String() {
		t.Fatalf("pipelined reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
	if a.Stats != b.Stats {
		t.Fatalf("final stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSoakSeedChangesSchedule guards against the schedule ignoring the
// seed (two different seeds should almost surely produce different fault
// streams).
func TestSoakSeedChangesSchedule(t *testing.T) {
	a, err := Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced identical fault logs")
	}
}

// TestConservingSelector pins the crafted DoTx selector to the
// money-conserving transaction classes.
func TestConservingSelector(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Ops = 400
	cfg.Promotes, cfg.Restarts, cfg.Partitions = 0, 0, 0
	cfg.DropProb, cfg.TruncateProb, cfg.DelayProb = 0, 0, 0
	cfg.Rebuild = false
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("fault-free soak must conserve money:\n%s", rep.String())
	}
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, "verify[final]:") && !strings.Contains(l, "ok=true") {
			t.Fatalf("final verify failed: %s", l)
		}
	}
}

// TestSoakAutoTuneDeterministic runs the full failure menu with the
// adaptive batch/depth controller driving the writer. The controller's
// inputs are all virtual-clock derived, so the reproducibility contract
// must survive it: zero violations, byte-identical reports per seed, and
// the controller demonstrably stepping.
func TestSoakAutoTuneDeterministic(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Pipeline = 16
	cfg.AutoTune = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 {
		t.Fatalf("autotuned soak reported %d violations:\n%s", a.Violations, a.String())
	}
	if a.Stats.AutoTuneSteps == 0 {
		t.Fatalf("controller never stepped: %+v", a.Stats)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("fault log digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.String() != b.String() {
		t.Fatalf("autotuned reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
	if a.Stats != b.Stats {
		t.Fatalf("final stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSoakServeDeterministic soaks with every workload operation routed
// through the networked front-end service (TCP server + synchronous
// client) under the full failure menu. The contract is the same as the
// direct soak: zero violations and byte-identical reports per seed —
// the serving plane adds sockets and goroutines but no nondeterminism,
// because all latency is still charged to the virtual clock.
func TestSoakServeDeterministic(t *testing.T) {
	cfg := smallConfig(17)
	cfg.Serve = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 {
		t.Fatalf("serve soak reported %d violations:\n%s", a.Violations, a.String())
	}
	if a.Stats.ServeAccepted == 0 {
		t.Fatalf("serve mode on but the server admitted nothing: %+v", a.Stats)
	}
	if !strings.Contains(a.String(), "serve=on") {
		t.Fatalf("report does not mark serve mode:\n%s", a.String())
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("fault log digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.String() != b.String() {
		t.Fatalf("serve reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
	if a.Stats != b.Stats {
		t.Fatalf("final stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSoakTxCrossDeterministic partitions the bank across two back-ends
// and routes spanning transfers through cross-shard 2PC under the full
// failure menu. The conservation invariant now checks cross-partition
// atomicity — a transfer half-applied across back-ends mints or burns
// money — and the reproducibility contract must hold with the 2PC plane
// (prepares, coordinator commit records, decisions) in the verb stream.
func TestSoakTxCrossDeterministic(t *testing.T) {
	cfg := smallConfig(19)
	cfg.TxCross = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 {
		t.Fatalf("txcross soak reported %d violations:\n%s", a.Violations, a.String())
	}
	if a.Stats.TxCrossCommits == 0 {
		t.Fatalf("txcross mode on but no transfer committed cross-shard: %+v", a.Stats)
	}
	if !strings.Contains(a.String(), "txcross=on") {
		t.Fatalf("report does not mark txcross mode:\n%s", a.String())
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if desc, diverged := DiffReports(a, b); diverged {
		t.Fatalf("txcross soak not reproducible: %s", desc)
	}
}

// TestTxCrossServeRejected pins the mode exclusion: the TCP service owns
// a single-shard bank, so combining it with -txcross must fail loudly
// instead of silently soaking the wrong topology.
func TestTxCrossServeRejected(t *testing.T) {
	cfg := smallConfig(1)
	cfg.TxCross = true
	cfg.Serve = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("TxCross+Serve config was accepted")
	}
}

// TestDiffReports exercises the determinism comparator on crafted
// divergences, in particular the stats-only case the report text alone
// cannot catch (the -determinism regression this comparator fixes).
func TestDiffReports(t *testing.T) {
	base := func() *Report {
		r := &Report{Lines: []string{"a", "b"}, Digest: 42}
		r.Stats.TxCommits = 7
		return r
	}
	if desc, diverged := DiffReports(base(), base()); diverged {
		t.Fatalf("identical reports flagged: %s", desc)
	}
	r := base()
	r.Lines[1] = "B"
	if desc, diverged := DiffReports(base(), r); !diverged || !strings.Contains(desc, "line 2") {
		t.Fatalf("line divergence missed: %q %v", desc, diverged)
	}
	r = base()
	r.Lines = append(r.Lines, "extra")
	if desc, diverged := DiffReports(base(), r); !diverged || !strings.Contains(desc, "extra") {
		t.Fatalf("length divergence missed: %q %v", desc, diverged)
	}
	r = base()
	r.Digest = 43
	if desc, diverged := DiffReports(base(), r); !diverged || !strings.Contains(desc, "digest") {
		t.Fatalf("digest divergence missed: %q %v", desc, diverged)
	}
	r = base()
	r.Stats.VerbRetries = 1
	desc, diverged := DiffReports(base(), r)
	if !diverged || !strings.Contains(desc, "VerbRetries") {
		t.Fatalf("stats-only divergence missed or unnamed: %q %v", desc, diverged)
	}
}

// TestSoakRebalanceDeterministic keeps elastic partition migrations
// running under the workload — double-log windows spanning live writes,
// epoch-fenced cutovers mid-soak, crash-restarts of the source node —
// with the usual contract: zero violations, committed keys durable
// through the persisted versioned map, and byte-identical reports per
// seed. The migration counters must show real activity: completed
// cutovers and operations double-logged inside open windows.
func TestSoakRebalanceDeterministic(t *testing.T) {
	cfg := smallConfig(23)
	cfg.Rebalance = true
	cfg.Promotes = 0
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != 0 {
		t.Fatalf("rebalance soak reported %d violations:\n%s", a.Violations, a.String())
	}
	if a.Stats.CutoverEpochs == 0 {
		t.Fatalf("rebalance mode on but nothing cut over: %+v", a.Stats)
	}
	if a.Stats.DoubleLoggedOps == 0 {
		t.Fatalf("no workload write landed inside a double-log window: %+v", a.Stats)
	}
	if a.Stats.MigrationsActive != 0 {
		t.Fatalf("soak ended with %d migrations still active", a.Stats.MigrationsActive)
	}
	if !strings.Contains(a.String(), "rebalance=on") {
		t.Fatalf("report does not mark rebalance mode:\n%s", a.String())
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if desc, diverged := DiffReports(a, b); diverged {
		t.Fatalf("rebalance soak not reproducible: %s", desc)
	}
}

// TestRebalanceModeExclusions pins the -rebalance mode exclusions: the
// modes that own the hash table (serve, multiwriter), pause under
// migration (txcross), or truncate the history it streams (compact)
// must be rejected loudly, as must scheduled promotions.
func TestRebalanceModeExclusions(t *testing.T) {
	for _, tweak := range []func(*Config){
		func(c *Config) { c.Serve = true },
		func(c *Config) { c.TxCross = true },
		func(c *Config) { c.MultiWriter = true; c.Promotes = 0 },
		func(c *Config) { c.Compact = true },
		func(c *Config) { c.Promotes = 1 },
	} {
		cfg := smallConfig(1)
		cfg.Rebalance = true
		if cfg.Promotes == 0 {
			cfg.Promotes = 0
		}
		tweak(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("invalid rebalance combination accepted: %+v", cfg)
		}
	}
}
