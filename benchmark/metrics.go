package main

// metric declares one reported number. BENCHMARK.json at the repository
// root repeats these tables for the driver; contract_test.go keeps the two
// in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// nominalSeconds is BENCHMARK.json's run_seconds: the measured window the
// op counts in workloads are calibrated to on the 2-core reference box.
const nominalSeconds = 10

// endToEnd are the metrics with a regression bound. Everything except
// setup_s is read off the virtual clock, an exact count, or the Go heap;
// host time is deliberately absent (see README.md). Each bound is at least
// three times the widest spread, (q3-q1)/median over ten seeds, that any
// workload showed for the metric on the reference box.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"virt_kops", "ops/vms", "higher", 0.01},
	{"virt_p50_us", "virt_us", "lower", 0.015},
	{"virt_p99_us", "virt_us", "lower", 0.025},
	{"fabric_write_amp", "B/B", "lower", 0.015},
	{"host_allocs_per_op", "count/op", "lower", 0.03},
	{"host_alloc_kb_per_op", "KB/op", "lower", 0.06},
	{"host_rss_mb", "MB", "lower", 0.12},
}

// perLayer are the unbounded metrics, named layer.metric after the
// repository's packages. Sources: (A) counter deltas over the untraced
// window, (B) trace self-time shares from the traced window, (C) timed
// calls into a layer's public functions, (D) process totals.
var perLayer = []metric{
	// (D) host-time numbers: reported with their spread, never bounded.
	{"process.host_kops", "kops/s", "higher", 0},
	{"process.host_kops_seg_q1", "kops/s", "higher", 0},
	{"process.host_kops_seg_med", "kops/s", "higher", 0},
	{"process.host_kops_seg_q3", "kops/s", "higher", 0},
	{"process.cpu_us_per_op", "us/op", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.trace_overhead_pct", "%", "lower", 0},

	{"serve.rtt_p50_us", "us", "lower", 0},
	{"serve.rtt_p99_us", "us", "lower", 0},
	{"serve.ping_rtt_us", "us", "lower", 0},
	{"serve.codec_ns_per_req", "ns/req", "lower", 0},
	{"serve.codec_allocs_per_req", "count/req", "lower", 0},
	{"serve.rejected_per_op", "count/op", "lower", 0},
	{"serve.expired_per_op", "count/op", "lower", 0},

	{"ds.nodes_touched_per_op", "count/op", "lower", 0},
	{"ds.virt_share", "share", "lower", 0},

	{"core.cache_hit_ratio", "ratio", "higher", 0},
	{"core.cache_evict_per_op", "count/op", "lower", 0},
	{"core.oplog_per_op", "count/op", "lower", 0},
	{"core.memlog_per_op", "count/op", "lower", 0},
	{"core.tx_commits_per_op", "count/op", "lower", 0},
	{"core.rpc_per_op", "count/op", "lower", 0},
	{"core.read_retry_per_op", "count/op", "lower", 0},
	{"core.verb_retries_per_op", "count/op", "lower", 0},
	{"core.virt_share_commit", "share", "lower", 0},
	{"core.virt_share_fetch", "share", "lower", 0},
	{"core.virt_share_other", "share", "lower", 0},

	{"rdma.round_trips_per_op", "count/op", "lower", 0},
	{"rdma.read_b_per_op", "B/op", "lower", 0},
	{"rdma.write_b_per_op", "B/op", "lower", 0},
	{"rdma.posted_per_doorbell", "count", "higher", 0},
	{"rdma.avg_queue_depth", "count", "higher", 0},
	{"rdma.overlap_saved_ns_per_op", "virt_ns/op", "higher", 0},
	{"rdma.virt_share", "share", "lower", 0},
	{"rdma.host_ns_per_verb", "ns", "lower", 0},

	{"nvm.virt_media_ns_per_op", "virt_ns/op", "lower", 0},
	{"nvm.host_ns_per_kb_write", "ns/KB", "lower", 0},
	{"nvm.host_ns_per_kb_read", "ns/KB", "lower", 0},

	{"backend.replayed_per_op", "count/op", "lower", 0},
	{"backend.replay_lag_end_b", "B", "lower", 0},
	{"backend.drain_virt_us", "virt_us", "lower", 0},
	{"backend.busy_virt_share", "share", "lower", 0},
	{"backend.virt_share_replay", "share", "lower", 0},
	{"backend.checkpoints", "count", "lower", 0},
	{"backend.truncated_b_per_op", "B/op", "higher", 0},
	{"backend.recovery_replay_ops", "count", "lower", 0},
	{"backend.recover_host_ms_p50", "ms", "lower", 0},
	{"backend.age_host_us_per_put", "us/op", "lower", 0},

	{"logrec.op_record_ns", "ns", "lower", 0},
	{"logrec.tx_record_ns", "ns", "lower", 0},
	{"logrec.allocs_per_record", "count", "lower", 0},
}
