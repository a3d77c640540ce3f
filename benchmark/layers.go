package main

import (
	"sort"
	"strings"

	"asymnvm/internal/clock"
	"asymnvm/internal/trace"
)

// layerOf is the benchmark's own kind→layer table for rolling trace self
// time up into per-layer shares. Kinds it does not name (retry back-off,
// fail-over, migration) land in "other" with any untraced remainder, so an
// actor's shares always sum to one.
var layerOf = map[trace.Kind]string{
	trace.KindOp:            "ds",
	trace.KindCPU:           "ds",
	trace.KindStripeAcquire: "ds",
	trace.KindCommit:        "commit",
	trace.KindOpLogFlush:    "commit",
	trace.KindFetch:         "fetch",
	trace.KindCacheHit:      "fetch",
	trace.KindVerbRead:      "rdma",
	trace.KindVerbWrite:     "rdma",
	trace.KindVerbAtomic:    "rdma",
	trace.KindPost:          "rdma",
	trace.KindRetireWait:    "rdma",
	trace.KindRPC:           "rdma",
	trace.KindReplay:        "replay",
	trace.KindCheckpoint:    "replay",
	trace.KindMirrorFwd:     "replay",
}

// ledger is an actor group's trace self time by kind and its virtual
// elapsed time, both cumulative.
type ledger struct {
	self    [trace.NumKinds]int64
	elapsed int64
}

// ledgers are the front-end and back-end actor groups of one tracer.
type ledgers struct{ fe, bk ledger }

// readLedgers sums the tracer's actors by role ("feNNN", "bkNNN" and their
// numbered re-incarnations). A nil tracer reads as zero.
func readLedgers(tr *trace.Tracer) ledgers {
	var l ledgers
	for _, a := range tr.Actors() {
		g := &l.bk
		if strings.HasPrefix(a.Name(), "fe") {
			g = &l.fe
		}
		self := a.SelfNS()
		for k := range self {
			g.self[k] += self[k]
		}
		g.elapsed += a.Elapsed()
	}
	return l
}

// rollup is the share of each actor group's virtual time per layer across
// an interval, and how much of that time the trace ledger accounted for.
type rollup struct {
	fe, bk             map[string]float64
	feCovered, bkCover float64
}

func (l ledgers) since(before ledgers) *rollup {
	r := &rollup{}
	r.fe, r.feCovered = l.fe.shares(before.fe)
	r.bk, r.bkCover = l.bk.shares(before.bk)
	return r
}

func (l ledger) shares(before ledger) (map[string]float64, float64) {
	out := map[string]float64{}
	elapsed := float64(l.elapsed - before.elapsed)
	if elapsed <= 0 {
		return out, 0
	}
	covered := 0.0
	for k := range l.self {
		share := float64(l.self[k]-before.self[k]) / elapsed
		covered += share
		if layer, ok := layerOf[trace.Kind(k)]; ok {
			out[layer] += share
		} else {
			out["other"] += share
		}
	}
	out["other"] += 1 - covered
	return out, covered
}

func per(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// endToEndValues derives the bounded metrics from a measurement.
func endToEndValues(m *measurement) map[string]float64 {
	lat := sortedCopy(m.lat)
	return map[string]float64{
		"setup_s":              medianF(m.setupS),
		"virt_kops":            float64(m.ops) / (float64(m.virtNS) / 1e6),
		"virt_p50_us":          windowMean(lat, 0.25, 0.75) / 1e3,
		"virt_p99_us":          windowMean(lat, 0.985, 0.995) / 1e3,
		"fabric_write_amp":     per(m.fe.BytesWrite, m.userBytes),
		"host_allocs_per_op":   float64(m.mallocs) / float64(m.ops),
		"host_alloc_kb_per_op": float64(m.allocB) / 1024 / float64(m.ops),
		"host_rss_mb":          float64(m.rssKB) / 1024,
	}
}

// perLayerValues derives the unbounded metrics: counters and process totals
// from the untraced measurement m, shares and tracing overhead from the
// traced one, probe timings from p. The (A) counters are divided by the
// window's ops, except on recover-replay, whose front-end counters cover
// the aging puts of one image and whose back-end counters every restart.
func perLayerValues(m *measurement, traced *measurement, p probeResults) map[string]float64 {
	feOps, bkOps := m.ops, m.ops
	if m.restartCount > 0 {
		feOps = m.ops / int64(m.restartCount)
	}
	prof := clock.DefaultProfile()
	media := float64(m.fe.RDMAWrite)*float64(prof.NVMWrite) + float64(m.fe.RDMARead)*float64(prof.NVMRead) +
		float64(prof.NVMTransfer(int(m.fe.BytesRead+m.fe.BytesWrite)))

	// (D) host time: total, and its spread over the segments.
	hostKops := float64(m.ops) / m.wall.Seconds() / 1e3
	segKops := make([]float64, len(m.seg))
	for i, d := range m.seg {
		segKops[i] = float64(m.ops) / float64(len(m.seg)) / d.Seconds() / 1e3
	}
	recoverMS := 0.0
	if m.restartCount > 0 { // each segment is one backend.New
		ms := make([]float64, len(m.seg))
		for i, d := range m.seg {
			ms[i] = float64(d) / 1e6
		}
		recoverMS = medianF(ms)
	}
	sort.Float64s(segKops)
	q := func(f float64) float64 { return segKops[int(f*float64(len(segKops)-1)+0.5)] }

	v := map[string]float64{
		"process.host_kops":         hostKops,
		"process.host_kops_seg_q1":  q(0.25),
		"process.host_kops_seg_med": q(0.50),
		"process.host_kops_seg_q3":  q(0.75),
		"process.cpu_us_per_op":     float64(m.cpu) / 1e3 / float64(m.ops),
		"process.gc_cycles":         float64(m.gcCycles),
		"process.gc_pause_ms":       float64(m.gcPause) / 1e6,

		"serve.ping_rtt_us":          m.pingUS,
		"serve.codec_ns_per_req":     p.codecNS,
		"serve.codec_allocs_per_req": p.codecAllocs,
		"serve.rejected_per_op":      per(m.fe.ServeRejected+m.fe.ServeBreaker, feOps),
		"serve.expired_per_op":       per(m.fe.ServeExpired, feOps),

		// Structures route cold reads around the cache as direct remote
		// reads that CacheMiss does not count (the skip list's low towers),
		// so a structure read is a cache hit or a fabric read.
		"ds.nodes_touched_per_op": per(m.fe.CacheHit+m.fe.RDMARead, feOps),

		"core.cache_hit_ratio":     per(m.fe.CacheHit, m.fe.CacheHit+m.fe.RDMARead),
		"core.cache_evict_per_op":  per(m.fe.CacheEvict, feOps),
		"core.oplog_per_op":        per(m.fe.OpLogs, feOps),
		"core.memlog_per_op":       per(m.fe.MemLogs, feOps),
		"core.tx_commits_per_op":   per(m.fe.TxCommits, feOps),
		"core.rpc_per_op":          per(m.fe.RPCCalls, feOps),
		"core.read_retry_per_op":   per(m.fe.ReadRetry, feOps),
		"core.verb_retries_per_op": per(m.fe.VerbRetries, feOps),

		"rdma.round_trips_per_op":      per(m.fe.RDMAVerbs(), feOps),
		"rdma.read_b_per_op":           per(m.fe.BytesRead, feOps),
		"rdma.write_b_per_op":          per(m.fe.BytesWrite, feOps),
		"rdma.posted_per_doorbell":     per(m.fe.PostedVerbs, m.fe.DoorbellGroups),
		"rdma.avg_queue_depth":         m.fe.AvgQueueDepth(),
		"rdma.overlap_saved_ns_per_op": per(m.fe.OverlapSavedNS, feOps),
		"rdma.host_ns_per_verb":        p.verbNS,

		"nvm.virt_media_ns_per_op": media / float64(feOps), // computed from counts, not traced
		"nvm.host_ns_per_kb_write": p.nvmWriteNSPerKB,
		"nvm.host_ns_per_kb_read":  p.nvmReadNSPerKB,

		"backend.replayed_per_op":     per(m.bk.TxReplayed, bkOps),
		"backend.replay_lag_end_b":    float64(m.lagEnd),
		"backend.drain_virt_us":       float64(m.drainNS) / 1e3,
		"backend.busy_virt_share":     per(m.bk.BusyNS, m.bkVirt),
		"backend.checkpoints":         float64(m.bk.Checkpoints),
		"backend.truncated_b_per_op":  per(m.bk.TruncatedBytes, bkOps),
		"backend.recovery_replay_ops": float64(m.replayOps),
		"backend.recover_host_ms_p50": recoverMS,
		"backend.age_host_us_per_put": m.ageUSPerPut,

		"logrec.op_record_ns":      p.opRecordNS,
		"logrec.tx_record_ns":      p.txRecordNS,
		"logrec.allocs_per_record": p.recordAllocs,
	}
	if len(m.rtt) > 0 {
		rtt := sortedCopy(m.rtt)
		v["serve.rtt_p50_us"] = float64(quantile(rtt, 0.50)) / 1e3
		v["serve.rtt_p99_us"] = float64(quantile(rtt, 0.99)) / 1e3
	}
	// (B) shares come from the traced window, as does the cost of tracing.
	if s := traced.shares; s != nil {
		v["ds.virt_share"] = s.fe["ds"]
		v["core.virt_share_commit"] = s.fe["commit"]
		v["core.virt_share_fetch"] = s.fe["fetch"]
		v["core.virt_share_other"] = s.fe["other"]
		v["rdma.virt_share"] = s.fe["rdma"]
		v["backend.virt_share_replay"] = s.bk["replay"]
		tracedKops := float64(traced.ops) / traced.wall.Seconds() / 1e3
		v["process.trace_overhead_pct"] = (hostKops/tracedKops - 1) * 100
	}
	return v
}
