# Developer entry points. `make check` is the pre-merge gate: static
# checks (go vet, staticcheck where installed, and an empty `gofmt -l .`),
# the full race-enabled test suite, the determinism contract
# (`make determinism`), and the fixed-seed chaos
# soak (5000 ops under crashes, partitions and truncations; exits
# non-zero on any invariant violation).

GO ?= go

.PHONY: all build vet test benchmark-test race chaos chaos-race determinism cover check bench bench-cpu bench-smoke bench-compare

# Minimum cross-package statement coverage (see `make cover`). Raise it
# when coverage rises; never lower it to merge.
COVER_FLOOR ?= 75.0

all: check

build:
	$(GO) build ./...

# go vet always, and gofmt: a file `gofmt -l .` lists fails the gate (run
# `gofmt -w` on it). staticcheck when installed (CI installs it — see
# .github/workflows/ci.yml — so the gate is enforced there even when a
# local checkout lacks the binary).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# benchmark/ is a module of its own, so `go test ./...` never compiles
# it: a core/ds/serve API change can break the repository benchmark
# unseen. This vets and tests it against the working tree (~1 min).
benchmark-test:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

race:
	$(GO) test -race ./...

chaos: build
	$(GO) run ./cmd/asymnvm-chaos -seed 1 -ops 5000

# A reduced-op chaos soak with the race detector on: every crash,
# failover and partition path runs under -race. -determinism runs each
# soak twice inside the binary and fails on the first divergent report
# line: with compaction on the post-recovery state must be a function of
# the durable log bytes alone, and with -serve the whole workload rides
# the TCP service (admission, run queue, executor) and must still be
# byte-identical per seed. -txcross partitions the bank across two
# back-ends with cross-shard 2PC transfers, so the conservation check
# covers cross-partition atomicity under the same contract. -multiwriter
# alternates two writer front-ends over one striped table through shared
# stripe locks and re-verifies every checkpoint through a mirror replica.
# -rebalance interleaves partition handoffs (begin/stream and
# cutover/finish split across steps) with the workload, crashes and
# truncations, and checks committed keys against a fresh reader routed
# by the persisted versioned map.
chaos-race: build
	$(GO) run -race ./cmd/asymnvm-chaos -seed 1 -ops 2000
	$(GO) run -race ./cmd/asymnvm-chaos -seed 1 -ops 2000 -compact -determinism
	$(GO) run -race ./cmd/asymnvm-chaos -seed 3 -ops 1000 -serve -determinism
	$(GO) run -race ./cmd/asymnvm-chaos -seed 5 -ops 1200 -txcross -determinism
	$(GO) run -race ./cmd/asymnvm-chaos -seed 7 -ops 1200 -multiwriter -promotes 0 -determinism
	$(GO) run -race ./cmd/asymnvm-chaos -seed 9 -ops 1200 -rebalance -promotes 0 -determinism

# The determinism contract, enforced: every chaos test that runs one seed
# twice and diffs the reports (fault digest, verify lines, final counters —
# `retries=` included), five times over, with one, two and eight Ps. A
# report line that follows host scheduling instead of the seed shows up
# as a diff at some GOMAXPROCS; -count also proves finished soaks are
# released (five soak pairs per test fit in memory only if they are).
# internal/ds adds the skip list's read path: a reader's fabric reads,
# hits, evictions and clock of one seed run twice, and a writer's cached
# set and evictions with its overlay drained at different points; and the
# hash table's write path with a cache that fits: verbs, bytes and clock
# the same whenever the overlay is retired.
determinism:
	GOMAXPROCS=1 $(GO) test ./internal/chaos ./internal/ds -run Deterministic -count=5
	GOMAXPROCS=2 $(GO) test ./internal/chaos ./internal/ds -run Deterministic -count=5
	GOMAXPROCS=8 $(GO) test ./internal/chaos ./internal/ds -run Deterministic -count=5

# Cross-package statement coverage with a hard floor. -coverpkg=./... so
# packages exercised only through other packages' tests (trace, stats,
# obshttp) still count.
cover:
	$(GO) test -coverpkg=./... -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below the floor of $(COVER_FLOOR)%"; exit 1; }

check: vet build race benchmark-test determinism chaos

bench:
	$(GO) test -bench=. -benchmem ./internal/bench/

# Wall-clock hot-path microbenchmarks (rings, doorbells, zero-alloc
# codecs, the DRAM cache's ordered search and admit-with-evict at 65 k
# keyed entries, a whole B+Tree put, a whole hash-table put, GetInto and
# 8-key GetMulti, and a whole served request — decode, admission, run queue,
# operation, encode — in process) at a fixed iteration count, for their ns/op. The hot paths have two gates and they
# live in different places. Allocations — 0 allocs/op in every cell, exact
# on any host — are gated by `go test` (internal/bench TestHotpathAllocs,
# so `make test` and `make race`): the first command below only prints the
# column. The SPSC-vs-channel speed-up floors are ratios of host times, and
# the second command, the full sweep, is the only place they are enforced —
# not in `go test`, and not in bench-smoke, which gates virtual-clock
# numbers alone. (The sweep also fails a cell that allocates, but on a small
# shared box it stops at the ratios first.)
bench-cpu: build
	$(GO) test -run NONE -bench Hotpath -benchtime=100x -benchmem ./internal/bench/
	$(GO) run ./cmd/asymnvm-bench -exp hotpath

# A fast CI-sized slice of the benchmark suite: the posted-verb pipeline
# sweep at reduced population, plus the cross-shard scale-out sweep
# regenerated at the checked-in BENCH_scaleout.json's exact scale and
# compared against it — the virtual clock makes the numbers host
# independent, so any drift beyond the threshold is a real change. Every
# gate here is a virtual-clock one; host-time ratios live in bench-cpu.
bench-smoke: build
	$(GO) run ./cmd/asymnvm-bench -exp pipeline -scale quick -seed 1000 -ops 800 -json BENCH_pipeline.smoke.json
	$(GO) run ./cmd/asymnvm-bench -exp scaleout -scale quick -seed 800 -ops 600 -json BENCH_scaleout.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_scaleout.json -head BENCH_scaleout.smoke.json
	$(GO) run ./cmd/asymnvm-bench -exp tx2pc -scale quick -seed 500 -ops 400 -json BENCH_tx2pc.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_tx2pc.json -head BENCH_tx2pc.smoke.json
	$(GO) run ./cmd/asymnvm-bench -exp multiwriter -scale quick -seed 400 -ops 240 -json BENCH_multiwriter.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_multiwriter.json -head BENCH_multiwriter.smoke.json -max-regress 25
	$(GO) run ./cmd/asymnvm-bench -exp recovery -scale quick -ops 400 -json BENCH_recovery.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_recovery.json -head BENCH_recovery.smoke.json
	$(GO) run ./cmd/asymnvm-bench -exp overload -scale quick -ops 600 -json BENCH_overload.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_overload.json -head BENCH_overload.smoke.json
	$(GO) run ./cmd/asymnvm-bench -exp rebalance -scale quick -seed 2048 -ops 1024 -keys 2048 -json BENCH_rebalance.smoke.json
	$(GO) run ./cmd/asymnvm-benchcmp -base BENCH_rebalance.json -head BENCH_rebalance.smoke.json

# Diff two BENCH_*.json dumps; fails on a >10% KOPS regression.
# Usage: make bench-compare BASE=old.json HEAD=new.json
BASE ?= BENCH_scaleout.json
HEAD ?= BENCH_scaleout.smoke.json
bench-compare: build
	$(GO) run ./cmd/asymnvm-benchcmp -base $(BASE) -head $(HEAD)
