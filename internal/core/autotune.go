package core

import (
	"time"

	"asymnvm/internal/stats"
)

// Adaptive batch/depth controller (Mode.AutoTune).
//
// PR 2's sweep showed the best static (B, depth) cell depends on the
// workload mix; this controller finds it online. The effective memory-log
// batch size B and the per-connection pipeline depth start at 1 and are
// adjusted at commit granularity on the p95 of the commit-phase latency
// histogram (the same log2 histogram the PR 3 phase breakdown uses),
// amortized per batched operation:
//
//   - growth phase (slow start): both knobs double every evaluation
//     window while the amortized p95 does not regress, up to the static
//     Mode.Batch / Mode.Pipeline values, which act as ceilings;
//   - on a regression beyond the headroom, multiplicative decrease
//     (halve) and a switch to additive increase — classic AIMD.
//
// Every input is derived from the virtual clock, so two runs with the
// same seed take the same controller trajectory: determinism is what
// lets the chaos soak stay byte-identical with autotune enabled.
const (
	tuneEvalEvery = 2    // commits per controller evaluation window
	tuneHeadroom  = 1.10 // tolerated amortized-p95 growth before backing off
)

type autoTuner struct {
	maxBatch, maxDepth int
	batch, depth       int
	additive           bool       // false: slow-start doubling; true: post-backoff AIMD
	hist               stats.Hist // commit-phase latency, controller-owned
	last               stats.HistSnapshot
	lastSignal         int64 // amortized p95 of the previous window; 0 = none yet
	commits            int
}

func newAutoTuner(m Mode) *autoTuner {
	t := &autoTuner{maxBatch: m.Batch, maxDepth: m.Pipeline, batch: 1, depth: 1}
	if t.maxBatch < 1 {
		t.maxBatch = 1
	}
	if t.maxDepth < 1 {
		t.maxDepth = 1
	}
	return t
}

// observeCommit records one commit flush duration (virtual time).
func (t *autoTuner) observeCommit(d time.Duration) {
	if t != nil {
		t.hist.Observe(int64(d))
	}
}

// onCommit advances the controller by one committed transaction and
// reports whether the effective settings changed.
func (t *autoTuner) onCommit() bool {
	t.commits++
	if t.commits%tuneEvalEvery != 0 {
		return false
	}
	snap := t.hist.Snapshot()
	win := snap.Sub(t.last)
	t.last = snap
	if win.Count == 0 {
		return false
	}
	// The controller minimizes commit latency per batched operation: a
	// bigger B takes longer per flush but covers more operations.
	signal := win.Quantile(0.95) / int64(t.batch)
	nb, nd := t.batch, t.depth
	if t.lastSignal == 0 || float64(signal) <= float64(t.lastSignal)*tuneHeadroom {
		if t.additive {
			nb += maxInt(1, t.maxBatch/8)
			nd += maxInt(1, t.maxDepth/8)
		} else {
			nb *= 2
			nd *= 2
		}
		nb = minInt(nb, t.maxBatch)
		nd = minInt(nd, t.maxDepth)
	} else {
		nb = maxInt(1, t.batch/2)
		nd = maxInt(1, t.depth/2)
		t.additive = true
	}
	t.lastSignal = signal
	if nb == t.batch && nd == t.depth {
		return false
	}
	t.batch, t.depth = nb, nd
	return true
}

// effBatch is the batch quota EndOp flushes at: the controller's current
// value when autotune is on, the static mode setting otherwise.
func (fe *Frontend) effBatch() int {
	if fe.tuner != nil {
		return fe.tuner.batch
	}
	return fe.mode.Batch
}

// effDepth is the per-connection pipeline depth currently in force.
func (fe *Frontend) effDepth() int {
	if fe.tuner != nil {
		return fe.tuner.depth
	}
	return fe.mode.Pipeline
}

// tuneCommit feeds one commit flush into the controller and applies any
// setting change to every connection; no-op without autotune.
func (fe *Frontend) tuneCommit(d time.Duration) {
	t := fe.tuner
	if t == nil {
		return
	}
	t.observeCommit(d)
	if !t.onCommit() {
		return
	}
	fe.st.AutoTuneSteps.Add(1)
	fe.st.AutoTuneBatch.Store(int64(t.batch))
	fe.st.AutoTuneDepth.Store(int64(t.depth))
	for _, c := range fe.conns {
		c.ep.SetPipeline(t.depth)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
