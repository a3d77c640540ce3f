package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Phase identifies one latency phase of the per-operation breakdown the
// evaluation reports (Fig. 14/15): where the virtual time of an operation
// goes — op-log flush, commit, cache-miss fetch, pipeline waits — plus the
// back-end-side replay and mirror-forward phases.
type Phase uint8

// Phases of the latency breakdown. PhaseVerb covers synchronous verb
// round trips not attributable to a higher-level phase; PhaseRetireWait is
// the residual (not-hidden-by-overlap) wait for posted-verb completions.
const (
	PhaseOp         Phase = iota // one whole data-structure write operation
	PhaseOpLogFlush              // rnvm_op_log persist (§4.3 durability point)
	PhaseCommit                  // rnvm_tx_write flush of buffered memory logs
	PhaseFetch                   // remote read serving a cache miss
	PhaseCacheHit                // DRAM cache / overlay hits
	PhaseVerb                    // synchronous verb round trips
	PhasePost                    // work-request issue CPU cost
	PhaseRetireWait              // un-hidden wait for doorbell-group completions
	PhaseRPC                     // ring RPC exchanges (malloc/free)
	PhaseRetry                   // retry backoff and failover handling
	PhaseReplay                  // back-end: applying one committed transaction
	PhaseMirror                  // back-end: forwarding state to mirrors
	PhaseCPU                     // fixed per-operation CPU charge
	NumPhases                    // sentinel: number of phases
)

var phaseNames = [NumPhases]string{
	"op", "oplog_flush", "commit", "fetch", "cache_hit", "verb", "post",
	"retire_wait", "rpc", "retry", "replay", "mirror_fwd", "cpu",
}

// String names the phase for reports and the /metrics exposition.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// histBuckets is the number of power-of-two latency buckets. Bucket i
// holds observations with bits.Len64(ns) == i, i.e. ns in [2^(i-1), 2^i).
// 44 buckets cover up to ~2.4 hours of virtual nanoseconds.
const histBuckets = 44

// Hist is a lock-free log2-bucketed latency histogram. The zero value is
// ready to use; all methods are safe for concurrent use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one latency sample in nanoseconds.
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// HistSnapshot is a plain-value copy of a histogram.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
}

// Snapshot copies the current histogram state.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Sub returns the per-bucket difference a-b, for measuring an interval
// between two snapshots of the same histogram.
func (s HistSnapshot) Sub(b HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: s.Count - b.Count, Sum: s.Sum - b.Sum}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - b.Buckets[i]
	}
	return d
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded samples: the upper edge of the bucket in which the quantile
// falls. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return (int64(1) << uint(i)) - 1
		}
	}
	return (int64(1) << (histBuckets - 1)) - 1
}

// Mean returns the average sample in nanoseconds, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// PhaseStat aggregates one phase of the latency breakdown: a duration
// histogram over phase instances, the total *self* time (phase time not
// inside a nested tracked phase, so self times sum to elapsed actor
// time), and the number of fabric round trips attributed to the phase.
type PhaseStat struct {
	Hist   Hist
	SelfNS atomic.Int64
	Verbs  atomic.Int64 // round trips paid while this phase was innermost
}

// Phases is the per-phase breakdown attached to a Stats. All fields are
// atomic; any actor may share it.
type Phases [NumPhases]PhaseStat

// PhaseSnapshot is a plain-value copy of one phase's aggregates.
type PhaseSnapshot struct {
	Phase  Phase
	Hist   HistSnapshot
	SelfNS int64
	Verbs  int64
}

// PhaseSnapshots copies every non-empty phase, in phase order.
func (s *Stats) PhaseSnapshots() []PhaseSnapshot {
	var out []PhaseSnapshot
	for p := Phase(0); p < NumPhases; p++ {
		ps := &s.Phase[p]
		snap := PhaseSnapshot{Phase: p, Hist: ps.Hist.Snapshot(), SelfNS: ps.SelfNS.Load(), Verbs: ps.Verbs.Load()}
		if snap.Hist.Count == 0 && snap.SelfNS == 0 && snap.Verbs == 0 {
			continue
		}
		out = append(out, snap)
	}
	return out
}

// FormatPhases renders the per-phase breakdown as an aligned text table
// with count, total self time, mean and p50/p95/p99 per phase.
func FormatPhases(snaps []PhaseSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %12s %12s %12s %12s %8s\n",
		"phase", "count", "self", "mean", "p50", "p95", "p99", "verbs")
	for _, ps := range snaps {
		fmt.Fprintf(&b, "%-12s %10d %14d %12.0f %12d %12d %12d %8d\n",
			ps.Phase, ps.Hist.Count, ps.SelfNS, ps.Hist.Mean(),
			ps.Hist.Quantile(0.50), ps.Hist.Quantile(0.95), ps.Hist.Quantile(0.99), ps.Verbs)
	}
	return b.String()
}
