// Package stats collects the counters the AsymNVM evaluation reports:
// RDMA verbs by type, bytes moved, cache behaviour, seqlock retries, log
// volumes and replay progress, and busy-time accounting for the CPU
// utilization figure.
//
// All counters are updated with atomics so any actor may share a Stats.
package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats is a set of monotone counters. The zero value is ready to use.
type Stats struct {
	RDMARead    atomic.Int64 // one-sided reads issued
	RDMAWrite   atomic.Int64 // one-sided writes issued
	RDMAAtomic  atomic.Int64 // CAS / fetch-add / atomic 64-bit verbs
	RPCCalls    atomic.Int64 // ring-based RPC invocations (malloc/free)
	BytesRead   atomic.Int64
	BytesWrite  atomic.Int64
	CacheHit    atomic.Int64
	CacheMiss   atomic.Int64
	CacheEvict  atomic.Int64
	ReadRetry   atomic.Int64 // seqlock read retries
	OpLogs      atomic.Int64 // operation logs appended
	MemLogs     atomic.Int64 // memory log entries appended
	TxCommits   atomic.Int64 // rnvm_tx_write flushes
	TxReplayed  atomic.Int64 // transactions applied by the replayer
	OpsAnnulled atomic.Int64 // stack/queue operations cancelled in the op log
	Allocs      atomic.Int64
	Frees       atomic.Int64
	VerbRetries atomic.Int64 // verbs re-issued after a transient fault
	Failovers   atomic.Int64 // endpoint re-targets to a replacement back-end

	// Posted-verb pipeline counters (async issue / doorbell batching).
	PostedVerbs    atomic.Int64 // work requests posted to a send queue
	DoorbellGroups atomic.Int64 // doorbells rung (round trips actually paid)
	QueueDepthSum  atomic.Int64 // sum over posts of in-flight WRs at post time
	OverlapSavedNS atomic.Int64 // virtual ns of fabric latency hidden by overlap

	// Cross-shard fan-out counters: windows in which one actor kept
	// doorbell groups in flight on several back-end connections at once,
	// and the virtual time saved versus issuing the same groups serially
	// link by link (sum-over-backends minus max-over-backends).
	FanoutWindows atomic.Int64 // fan-out windows closed
	FanoutSavedNS atomic.Int64 // virtual ns saved by cross-connection overlap

	// Adaptive batch/depth controller (Mode.AutoTune) telemetry.
	// AutoTuneBatch/AutoTuneDepth are gauges holding the controller's
	// current effective memory-log batch size and pipeline depth.
	AutoTuneSteps atomic.Int64 // controller adjustments applied
	AutoTuneBatch atomic.Int64 // current effective batch size B (gauge)
	AutoTuneDepth atomic.Int64 // current effective pipeline depth (gauge)

	// Compaction/recovery plane counters. Checkpoints counts checkpoint
	// records written by the back-end; TruncatedBytes counts log bytes
	// reclaimed (memory + op log truncation advances); RecoveryReplayOps
	// counts transactions replayed during Backend.recover() — the quantity
	// compaction exists to bound.
	Checkpoints       atomic.Int64
	TruncatedBytes    atomic.Int64
	RecoveryReplayOps atomic.Int64

	// Serving-plane counters (internal/serve admission control plus the
	// core retry loop's deadline propagation). ServeAccepted counts
	// requests admitted into the run queue; ServeRejected counts
	// admission rejections (tenant tokens, concurrency limit, queue
	// full); ServeBreaker counts rejections by an open per-tenant
	// breaker; ServeExpired counts admitted requests dropped before
	// execution because their deadline passed while queued; ServeSlowDrop
	// counts client connections severed for not draining responses;
	// DeadlineMiss counts verbs aborted by an armed virtual-time
	// deadline in the retry loop.
	ServeAccepted atomic.Int64
	ServeRejected atomic.Int64
	ServeBreaker  atomic.Int64
	ServeExpired  atomic.Int64
	ServeSlowDrop atomic.Int64
	DeadlineMiss  atomic.Int64

	// Two-phase-commit counters. TxPrepares counts prepare records
	// appended by the front-end (one per participant per transaction);
	// TxCrossCommits/TxCrossAborts count cross-shard transactions that
	// reached the commit record vs. aborted before it; InDoubtResolved
	// counts prepares resolved by recovery's coordinator consultation
	// (both outcomes — the presumed-abort path of §7.2 extended).
	TxPrepares      atomic.Int64
	TxCrossCommits  atomic.Int64
	TxCrossAborts   atomic.Int64
	InDoubtResolved atomic.Int64

	// Multi-writer / mirror-read counters. StripeConflicts counts failed
	// lock CAS attempts on a shared (striped) writer lock — spins caused
	// by another front-end holding the stripe; CASRetries counts aborted
	// multi-writer MV root publications (the CAS found a root moved by a
	// concurrent writer and the operation re-executed); MirrorReads counts
	// read operations served from a mirror replica instead of the primary;
	// MirrorStaleEpochs accumulates, over those reads, how many epochs the
	// serving mirror trailed the primary — divide by MirrorReads for the
	// average served staleness.
	StripeConflicts   atomic.Int64
	CASRetries        atomic.Int64
	MirrorReads       atomic.Int64
	MirrorStaleEpochs atomic.Int64

	// Elastic rebalancing counters. MigrationsActive is a gauge of
	// handoffs currently in flight (between BeginMigration and Finish);
	// DoubleLoggedOps counts write operations committed to both source
	// and destination during a handoff window; CutoverEpochs counts
	// partition-map version flips (each cutover and each reclaim bumps
	// the map version once).
	MigrationsActive atomic.Int64
	DoubleLoggedOps  atomic.Int64
	CutoverEpochs    atomic.Int64

	// BusyNS accumulates virtual nanoseconds during which the owning
	// node's CPU was doing work (as opposed to waiting on the fabric).
	BusyNS atomic.Int64

	// Phase breaks latency down by operation phase (see hist.go). It is
	// populated by the tracer; all fields are atomic.
	Phase Phases
}

// AddBusy charges d of CPU-busy virtual time.
func (s *Stats) AddBusy(d time.Duration) {
	if d > 0 {
		s.BusyNS.Add(int64(d))
	}
}

// Snapshot is a plain-value copy of all counters.
type Snapshot struct {
	RDMARead, RDMAWrite, RDMAAtomic, RPCCalls int64
	BytesRead, BytesWrite                     int64
	CacheHit, CacheMiss, CacheEvict           int64
	ReadRetry                                 int64
	OpLogs, MemLogs, TxCommits, TxReplayed    int64
	OpsAnnulled                               int64
	Allocs, Frees                             int64
	VerbRetries, Failovers                    int64
	PostedVerbs, DoorbellGroups               int64
	QueueDepthSum, OverlapSavedNS             int64
	FanoutWindows, FanoutSavedNS              int64
	AutoTuneSteps                             int64
	AutoTuneBatch, AutoTuneDepth              int64
	Checkpoints, TruncatedBytes               int64
	RecoveryReplayOps                         int64
	ServeAccepted, ServeRejected              int64
	ServeBreaker, ServeExpired                int64
	ServeSlowDrop, DeadlineMiss               int64
	TxPrepares, TxCrossCommits                int64
	TxCrossAborts, InDoubtResolved            int64
	StripeConflicts, CASRetries               int64
	MirrorReads, MirrorStaleEpochs            int64
	MigrationsActive, DoubleLoggedOps         int64
	CutoverEpochs                             int64
	BusyNS                                    int64
}

// Snapshot captures the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		RDMARead:          s.RDMARead.Load(),
		RDMAWrite:         s.RDMAWrite.Load(),
		RDMAAtomic:        s.RDMAAtomic.Load(),
		RPCCalls:          s.RPCCalls.Load(),
		BytesRead:         s.BytesRead.Load(),
		BytesWrite:        s.BytesWrite.Load(),
		CacheHit:          s.CacheHit.Load(),
		CacheMiss:         s.CacheMiss.Load(),
		CacheEvict:        s.CacheEvict.Load(),
		ReadRetry:         s.ReadRetry.Load(),
		OpLogs:            s.OpLogs.Load(),
		MemLogs:           s.MemLogs.Load(),
		TxCommits:         s.TxCommits.Load(),
		TxReplayed:        s.TxReplayed.Load(),
		OpsAnnulled:       s.OpsAnnulled.Load(),
		Allocs:            s.Allocs.Load(),
		Frees:             s.Frees.Load(),
		VerbRetries:       s.VerbRetries.Load(),
		Failovers:         s.Failovers.Load(),
		PostedVerbs:       s.PostedVerbs.Load(),
		DoorbellGroups:    s.DoorbellGroups.Load(),
		QueueDepthSum:     s.QueueDepthSum.Load(),
		OverlapSavedNS:    s.OverlapSavedNS.Load(),
		FanoutWindows:     s.FanoutWindows.Load(),
		FanoutSavedNS:     s.FanoutSavedNS.Load(),
		AutoTuneSteps:     s.AutoTuneSteps.Load(),
		AutoTuneBatch:     s.AutoTuneBatch.Load(),
		AutoTuneDepth:     s.AutoTuneDepth.Load(),
		Checkpoints:       s.Checkpoints.Load(),
		TruncatedBytes:    s.TruncatedBytes.Load(),
		RecoveryReplayOps: s.RecoveryReplayOps.Load(),
		ServeAccepted:     s.ServeAccepted.Load(),
		ServeRejected:     s.ServeRejected.Load(),
		ServeBreaker:      s.ServeBreaker.Load(),
		ServeExpired:      s.ServeExpired.Load(),
		ServeSlowDrop:     s.ServeSlowDrop.Load(),
		DeadlineMiss:      s.DeadlineMiss.Load(),
		TxPrepares:        s.TxPrepares.Load(),
		TxCrossCommits:    s.TxCrossCommits.Load(),
		TxCrossAborts:     s.TxCrossAborts.Load(),
		InDoubtResolved:   s.InDoubtResolved.Load(),
		StripeConflicts:   s.StripeConflicts.Load(),
		CASRetries:        s.CASRetries.Load(),
		MirrorReads:       s.MirrorReads.Load(),
		MirrorStaleEpochs: s.MirrorStaleEpochs.Load(),
		MigrationsActive:  s.MigrationsActive.Load(),
		DoubleLoggedOps:   s.DoubleLoggedOps.Load(),
		CutoverEpochs:     s.CutoverEpochs.Load(),
		BusyNS:            s.BusyNS.Load(),
	}
}

// Sub returns the per-field difference a-b, for measuring an interval.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		RDMARead:          a.RDMARead - b.RDMARead,
		RDMAWrite:         a.RDMAWrite - b.RDMAWrite,
		RDMAAtomic:        a.RDMAAtomic - b.RDMAAtomic,
		RPCCalls:          a.RPCCalls - b.RPCCalls,
		BytesRead:         a.BytesRead - b.BytesRead,
		BytesWrite:        a.BytesWrite - b.BytesWrite,
		CacheHit:          a.CacheHit - b.CacheHit,
		CacheMiss:         a.CacheMiss - b.CacheMiss,
		CacheEvict:        a.CacheEvict - b.CacheEvict,
		ReadRetry:         a.ReadRetry - b.ReadRetry,
		OpLogs:            a.OpLogs - b.OpLogs,
		MemLogs:           a.MemLogs - b.MemLogs,
		TxCommits:         a.TxCommits - b.TxCommits,
		TxReplayed:        a.TxReplayed - b.TxReplayed,
		OpsAnnulled:       a.OpsAnnulled - b.OpsAnnulled,
		Allocs:            a.Allocs - b.Allocs,
		Frees:             a.Frees - b.Frees,
		VerbRetries:       a.VerbRetries - b.VerbRetries,
		Failovers:         a.Failovers - b.Failovers,
		PostedVerbs:       a.PostedVerbs - b.PostedVerbs,
		DoorbellGroups:    a.DoorbellGroups - b.DoorbellGroups,
		QueueDepthSum:     a.QueueDepthSum - b.QueueDepthSum,
		OverlapSavedNS:    a.OverlapSavedNS - b.OverlapSavedNS,
		FanoutWindows:     a.FanoutWindows - b.FanoutWindows,
		FanoutSavedNS:     a.FanoutSavedNS - b.FanoutSavedNS,
		AutoTuneSteps:     a.AutoTuneSteps - b.AutoTuneSteps,
		AutoTuneBatch:     a.AutoTuneBatch - b.AutoTuneBatch,
		AutoTuneDepth:     a.AutoTuneDepth - b.AutoTuneDepth,
		Checkpoints:       a.Checkpoints - b.Checkpoints,
		TruncatedBytes:    a.TruncatedBytes - b.TruncatedBytes,
		RecoveryReplayOps: a.RecoveryReplayOps - b.RecoveryReplayOps,
		ServeAccepted:     a.ServeAccepted - b.ServeAccepted,
		ServeRejected:     a.ServeRejected - b.ServeRejected,
		ServeBreaker:      a.ServeBreaker - b.ServeBreaker,
		ServeExpired:      a.ServeExpired - b.ServeExpired,
		ServeSlowDrop:     a.ServeSlowDrop - b.ServeSlowDrop,
		DeadlineMiss:      a.DeadlineMiss - b.DeadlineMiss,
		TxPrepares:        a.TxPrepares - b.TxPrepares,
		TxCrossCommits:    a.TxCrossCommits - b.TxCrossCommits,
		TxCrossAborts:     a.TxCrossAborts - b.TxCrossAborts,
		InDoubtResolved:   a.InDoubtResolved - b.InDoubtResolved,
		StripeConflicts:   a.StripeConflicts - b.StripeConflicts,
		CASRetries:        a.CASRetries - b.CASRetries,
		MirrorReads:       a.MirrorReads - b.MirrorReads,
		MirrorStaleEpochs: a.MirrorStaleEpochs - b.MirrorStaleEpochs,
		MigrationsActive:  a.MigrationsActive - b.MigrationsActive,
		DoubleLoggedOps:   a.DoubleLoggedOps - b.DoubleLoggedOps,
		CutoverEpochs:     a.CutoverEpochs - b.CutoverEpochs,
		BusyNS:            a.BusyNS - b.BusyNS,
	}
}

// RDMAVerbs is the total number of network round trips in the snapshot.
func (a Snapshot) RDMAVerbs() int64 {
	return a.RDMARead + a.RDMAWrite + a.RDMAAtomic
}

// AvgQueueDepth reports the mean number of in-flight work requests
// observed at post time, or 0 when nothing was posted. A value near 1
// means the pipeline degenerated to synchronous issue; deeper is better.
func (a Snapshot) AvgQueueDepth() float64 {
	if a.PostedVerbs == 0 {
		return 0
	}
	return float64(a.QueueDepthSum) / float64(a.PostedVerbs)
}

// HitRatio reports the cache hit ratio, or 0 when no accesses happened.
func (a Snapshot) HitRatio() float64 {
	t := a.CacheHit + a.CacheMiss
	if t == 0 {
		return 0
	}
	return float64(a.CacheHit) / float64(t)
}

// String renders a compact human-readable summary.
func (a Snapshot) String() string {
	return fmt.Sprintf(
		"rdma{r=%d w=%d atom=%d rpc=%d} bytes{r=%d w=%d} cache{hit=%d miss=%d} logs{op=%d mem=%d tx=%d replayed=%d} retry=%d resil{retry=%d fo=%d} pipe{wr=%d db=%d qd=%.1f saved=%dns} fan{win=%d saved=%dns} tune{steps=%d B=%d depth=%d} ckpt{n=%d trunc=%dB rro=%d} serve{acc=%d rej=%d brk=%d exp=%d slow=%d dl=%d} 2pc{prep=%d commit=%d abort=%d doubt=%d} mw{stripe=%d cas=%d mread=%d mstale=%d} mig{active=%d dbl=%d cut=%d}",
		a.RDMARead, a.RDMAWrite, a.RDMAAtomic, a.RPCCalls,
		a.BytesRead, a.BytesWrite,
		a.CacheHit, a.CacheMiss,
		a.OpLogs, a.MemLogs, a.TxCommits, a.TxReplayed,
		a.ReadRetry,
		a.VerbRetries, a.Failovers,
		a.PostedVerbs, a.DoorbellGroups, a.AvgQueueDepth(), a.OverlapSavedNS,
		a.FanoutWindows, a.FanoutSavedNS,
		a.AutoTuneSteps, a.AutoTuneBatch, a.AutoTuneDepth,
		a.Checkpoints, a.TruncatedBytes, a.RecoveryReplayOps,
		a.ServeAccepted, a.ServeRejected, a.ServeBreaker,
		a.ServeExpired, a.ServeSlowDrop, a.DeadlineMiss,
		a.TxPrepares, a.TxCrossCommits, a.TxCrossAborts, a.InDoubtResolved,
		a.StripeConflicts, a.CASRetries, a.MirrorReads, a.MirrorStaleEpochs,
		a.MigrationsActive, a.DoubleLoggedOps, a.CutoverEpochs,
	)
}
