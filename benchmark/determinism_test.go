package main

import (
	"math"
	"testing"
)

// testScale runs a workload at 5% of its op count (set-up stays full
// size): long enough for the tail window to hold a few hundred samples.
const testScale = 0.05

// virtualMetrics are the end-to-end metrics that must not depend on the
// host: the virtual clock and exact byte counts.
var virtualMetrics = []string{"virt_kops", "virt_p50_us", "virt_p99_us", "fabric_write_amp"}

// counterMetrics are the per-layer metrics built from the front-end's
// counters, source (A).
var counterMetrics = []string{
	"ds.nodes_touched_per_op", "core.cache_hit_ratio", "core.cache_evict_per_op", "core.oplog_per_op",
	"core.memlog_per_op", "core.tx_commits_per_op", "core.rpc_per_op", "core.read_retry_per_op",
	"core.verb_retries_per_op", "rdma.round_trips_per_op", "rdma.read_b_per_op", "rdma.write_b_per_op",
	"rdma.posted_per_doorbell", "rdma.avg_queue_depth", "rdma.overlap_saved_ns_per_op", "nvm.virt_media_ns_per_op",
}

// sameSeedTolerance is how far two runs of one seed may differ. They are
// not bit-identical: a front-end whose replayer was scheduled late pays
// charged LPN polls (pruneOverlay, Drain) that a luckier run does not, so
// round trips and the virtual clock pick up a little host scheduling.
const sameSeedTolerance = 0.005

// relDiff is |a-b| over the larger magnitude.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestDeterminism runs every workload twice with one seed and once with
// another. Equal seeds must give the same virtual metrics and the same
// counter-built layer metrics, to within sameSeedTolerance. Another seed
// must give other numbers, which proves the seed reaches the generator.
// Back-end counters are left out: how the replayer groups its work depends
// on when it is scheduled.
func TestDeterminism(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			scale := testScale
			if wl.Name == "recover-replay" {
				// Its front-end counters cover one aging run, and a 640-put
				// history is short enough for a dozen host-driven Drain and
				// prune polls to be 0.8% of its round trips.
				scale = 0.25
			}
			run := func(seed int64) map[string]float64 {
				m, err := wl.run(runArgs{seed: seed, scale: scale, setups: 1})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if m.failed != 0 || m.attempted == 0 {
					t.Fatalf("seed %d: %d of %d operations failed", seed, m.failed, m.attempted)
				}
				v := endToEndValues(m)
				layers := perLayerValues(m, m, probeResults{})
				for _, name := range counterMetrics {
					v[name] = layers[name]
				}
				return v
			}
			v1, v2, v3 := run(7), run(7), run(8)
			for _, name := range append(append([]string(nil), virtualMetrics...), counterMetrics...) {
				if d := relDiff(v1[name], v2[name]); d > sameSeedTolerance {
					t.Errorf("%s: %v then %v with one seed (differ by %.4f, allowed %.4f)", name, v1[name], v2[name], d, sameSeedTolerance)
				}
			}
			if v1["virt_kops"] == v3["virt_kops"] && v1["virt_p50_us"] == v3["virt_p50_us"] {
				t.Errorf("seeds 7 and 8 give the same virt_kops %v and virt_p50_us %v: the seed does not reach the generator", v1["virt_kops"], v1["virt_p50_us"])
			}
		})
	}
}
