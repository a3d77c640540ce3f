// Command asymnvm-chaos runs the deterministic fault soak: a mixed
// smallbank + hash-table workload against a one-back-end cluster while
// the fault plane injects verb drops, mid-transfer truncations, delays,
// partitions, back-end crashes (with mirror promotion) and restarts —
// checking durability and consistency invariants after every recovery.
//
// The whole run is a pure function of -seed: two invocations with the
// same flags print byte-identical reports, including the fault event
// log. Exit status is non-zero when any invariant was violated.
//
// With -serve every workload operation is routed through the networked
// front-end service (internal/serve) instead of direct calls, so the
// admission/queue/executor path is soaked under fault injection.
//
// With -determinism the soak runs twice with identical configuration
// and the two reports are compared line by line, along with the fault
// event digest and the final stats snapshot: the first divergence is
// printed and the exit status is non-zero. This is the reproducibility
// contract as a command.
//
// With -txcross the smallbank is partitioned across two back-ends and
// transfers spanning partitions commit under cross-shard 2PC; the money
// conservation check then covers cross-partition atomicity.
//
// With -multiwriter the hash table becomes a striped table written
// alternately by two front-ends through per-stripe shared writer locks,
// and every verification additionally reads the committed keys back
// through a mirror replica with a zero-staleness-after-sync assertion.
// Requires -promotes 0.
//
// With -rebalance the hash table becomes an elastic partitioned table
// spread over two back-ends, and partition migrations run continuously
// under the workload: double-log windows stay open across live writes,
// cutovers flip the versioned map mid-soak, and every verification
// re-routes through the persisted map. Requires -promotes 0.
//
// Usage:
//
//	asymnvm-chaos -seed 1 -ops 5000
//	asymnvm-chaos -seed 7 -ops 2000 -drop 0.02 -v
//	asymnvm-chaos -seed 3 -ops 2000 -serve -determinism
package main

import (
	"flag"
	"fmt"
	"os"

	"asymnvm/internal/chaos"
	"asymnvm/internal/core"
	"asymnvm/internal/obshttp"
	"asymnvm/internal/trace"
)

func main() {
	cfg := chaos.DefaultConfig()
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "fault plane and workload seed")
	flag.IntVar(&cfg.Ops, "ops", cfg.Ops, "workload operations")
	acct := flag.Uint64("accounts", cfg.Accounts, "smallbank accounts")
	keys := flag.Uint64("keys", cfg.Keys, "hash-table key space")
	flag.IntVar(&cfg.Mirrors, "mirrors", cfg.Mirrors, "replica mirrors (promotion candidates)")
	flag.IntVar(&cfg.Promotes, "promotes", cfg.Promotes, "scheduled permanent crashes (mirror promotions)")
	flag.IntVar(&cfg.Restarts, "restarts", cfg.Restarts, "scheduled crash-restarts")
	flag.IntVar(&cfg.Partitions, "partitions", cfg.Partitions, "scheduled partition windows")
	flag.Float64Var(&cfg.DropProb, "drop", cfg.DropProb, "per-verb drop probability")
	flag.Float64Var(&cfg.TruncateProb, "trunc", cfg.TruncateProb, "per-verb truncation probability")
	flag.Float64Var(&cfg.DelayProb, "delay", cfg.DelayProb, "per-verb delay probability")
	flag.IntVar(&cfg.MirrorLag, "lag", cfg.MirrorLag, "mirror replication lag in kicks")
	flag.IntVar(&cfg.Pipeline, "pipeline", cfg.Pipeline, "writer send-queue depth (>1 enables posted verbs)")
	flag.BoolVar(&cfg.AutoTune, "autotune", cfg.AutoTune, "enable the adaptive batch/depth controller on the writer")
	flag.BoolVar(&cfg.Compact, "compact", cfg.Compact, "run every back-end incarnation with log compaction on")
	flag.BoolVar(&cfg.Rebuild, "rebuild", cfg.Rebuild, "end with an archive-replay rebuild check")
	flag.BoolVar(&cfg.Serve, "serve", cfg.Serve, "route the workload through the TCP front-end service")
	flag.BoolVar(&cfg.TxCross, "txcross", cfg.TxCross, "partition the bank across two back-ends with cross-shard 2PC transfers")
	flag.BoolVar(&cfg.MultiWriter, "multiwriter", cfg.MultiWriter, "alternate two writer front-ends over one striped table and verify through a mirror replica (requires -promotes 0)")
	flag.BoolVar(&cfg.Rebalance, "rebalance", cfg.Rebalance, "run continuous elastic partition migrations across two back-ends under the workload (requires -promotes 0)")
	flag.BoolVar(&cfg.Verbose, "v", cfg.Verbose, "print every injected fault event")
	determinism := flag.Bool("determinism", false, "run twice and fail on the first divergent report line")
	doTrace := flag.Bool("trace", false, "record a span trace of the soak")
	traceOut := flag.String("trace-out", "", "write the chrome://tracing JSON to this file (implies -trace)")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/trace and /debug/flame on this address while the soak runs")
	flag.Parse()
	cfg.Accounts = *acct
	cfg.Keys = *keys

	if *traceOut != "" || *httpAddr != "" {
		*doTrace = true
	}
	if *doTrace {
		cfg.Tracer = trace.New()
	}
	var srv *obshttp.Server
	if *httpAddr != "" {
		srv = obshttp.New(cfg.Tracer)
		cfg.OnFrontend = func(fe *core.Frontend) { srv.AddStats("fe001", fe.Stats()) }
		_, addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymnvm-chaos: http: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("serving /metrics, /debug/trace, /debug/flame on %s\n", addr)
	}

	rep, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asymnvm-chaos: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep.String())
	if *determinism {
		rep2, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymnvm-chaos: determinism rerun: %v\n", err)
			os.Exit(2)
		}
		// DiffReports also compares the final stats snapshot — a
		// scheduling leak can drift a counter while the report text
		// stays byte-identical.
		if desc, diverged := chaos.DiffReports(rep, rep2); diverged {
			fmt.Fprintf(os.Stderr, "asymnvm-chaos: determinism FAILED: %s\n", desc)
			os.Exit(1)
		}
		fmt.Printf("determinism: %d report lines, digest and stats identical across two runs\n", len(rep.Lines))
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, cfg.Tracer.ChromeJSON(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "asymnvm-chaos: writing %s: %v\n", *traceOut, err)
			os.Exit(2)
		}
	}
	if rep.Violations > 0 {
		fmt.Fprintf(os.Stderr, "asymnvm-chaos: %d invariant violation(s)\n", rep.Violations)
		os.Exit(1)
	}
}
