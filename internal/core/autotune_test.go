package core

import (
	"testing"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/nvm"
)

// feedCommits pushes n identical commit observations into the controller.
func feedCommits(t *autoTuner, n int, d time.Duration) (changed int) {
	for i := 0; i < n; i++ {
		t.observeCommit(d)
		if t.onCommit() {
			changed++
		}
	}
	return changed
}

// TestAutoTunerSlowStartRampsToCeilings: constant commit latency means
// every bigger batch amortizes better, so the controller must double both
// knobs up to the static ceilings and then hold.
func TestAutoTunerSlowStartRampsToCeilings(t *testing.T) {
	tn := newAutoTuner(Mode{Batch: 16, Pipeline: 8})
	if tn.batch != 1 || tn.depth != 1 {
		t.Fatalf("controller must start at (1,1), got (%d,%d)", tn.batch, tn.depth)
	}
	feedCommits(tn, 40, time.Millisecond)
	if tn.batch != 16 || tn.depth != 8 {
		t.Fatalf("ramp ended at (B=%d,depth=%d), want the (16,8) ceilings", tn.batch, tn.depth)
	}
	if tn.additive {
		t.Fatal("no regression was fed; controller must still be in slow start")
	}
	// Holding at the ceiling must not oscillate.
	if n := feedCommits(tn, 20, time.Millisecond); n != 0 {
		t.Fatalf("controller changed settings %d times while pinned at the ceiling", n)
	}
}

// TestAutoTunerBacksOffOnRegression: a latency blow-up beyond the
// headroom must halve the knobs and switch to additive increase.
func TestAutoTunerBacksOffOnRegression(t *testing.T) {
	tn := newAutoTuner(Mode{Batch: 16, Pipeline: 8})
	feedCommits(tn, 40, time.Millisecond)
	feedCommits(tn, tuneEvalEvery, 500*time.Millisecond) // regression window
	if tn.batch != 8 || tn.depth != 4 {
		t.Fatalf("after regression got (B=%d,depth=%d), want the halved (8,4)", tn.batch, tn.depth)
	}
	if !tn.additive {
		t.Fatal("regression must flip the controller to additive increase")
	}
	// Recovery is additive now: +max(1, max/8) per improving window.
	before := tn.batch
	feedCommits(tn, tuneEvalEvery, time.Millisecond) // re-baseline (improvement)
	feedCommits(tn, tuneEvalEvery, time.Millisecond) // first additive step
	if tn.batch != before+2+2 && tn.batch != before+2 {
		t.Fatalf("additive recovery took batch from %d to %d, want +2 per window", before, tn.batch)
	}
	if tn.batch > 16 || tn.depth > 8 {
		t.Fatalf("controller exceeded its ceilings: (B=%d,depth=%d)", tn.batch, tn.depth)
	}
}

// TestAutoTunerFloorsAtOne: sustained regressions can never push the
// knobs below 1.
func TestAutoTunerFloorsAtOne(t *testing.T) {
	tn := newAutoTuner(Mode{Batch: 8, Pipeline: 8})
	feedCommits(tn, 20, time.Millisecond)
	// Alternate tiny/huge windows so every evaluation is a regression.
	for i := 0; i < 20; i++ {
		feedCommits(tn, tuneEvalEvery, time.Millisecond)
		feedCommits(tn, tuneEvalEvery, time.Second)
	}
	if tn.batch < 1 || tn.depth < 1 {
		t.Fatalf("knobs fell below 1: (B=%d,depth=%d)", tn.batch, tn.depth)
	}
}

// TestAutoTuneDeterministicConverges runs the same committed workload
// twice under Mode.AutoTune on the virtual clock: both runs must take the
// identical controller trajectory (same final knobs, same step count,
// same virtual time) and actually move off the (1,1) start.
func TestAutoTuneDeterministicConverges(t *testing.T) {
	run := func() (int64, int64, int64, int64, time.Duration) {
		prof := clock.DefaultProfile()
		dev := nvm.NewDevice(64 << 20)
		bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		defer bk.Stop()
		fe := NewFrontend(FrontendOptions{ID: 1, Mode: Mode{OpLog: true, Batch: 16, Pipeline: 8}.WithAutoTune(), Profile: &prof})
		c, err := fe.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Create("tune", backend.TypeApp, smallOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriterLock(); err != nil {
			t.Fatal(err)
		}
		addr, err := c.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for i := 0; i < 400; i++ {
			if _, err := h.OpLog(1, buf[:8]); err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(i)
			if err := h.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
			if err := h.EndOp(); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		snap := fe.Stats().Snapshot()
		return snap.AutoTuneSteps, snap.AutoTuneBatch, snap.AutoTuneDepth, snap.TxCommits, fe.Clock().Now()
	}
	s1, b1, d1, c1, t1 := run()
	s2, b2, d2, c2, t2 := run()
	if s1 != s2 || b1 != b2 || d1 != d2 || c1 != c2 || t1 != t2 {
		t.Fatalf("autotune not deterministic: run1 (steps=%d B=%d depth=%d commits=%d now=%v), run2 (steps=%d B=%d depth=%d commits=%d now=%v)",
			s1, b1, d1, c1, t1, s2, b2, d2, c2, t2)
	}
	if s1 == 0 {
		t.Fatal("controller never stepped off (1,1)")
	}
	if b1 < 2 || d1 < 2 {
		t.Fatalf("controller converged to (B=%d,depth=%d); expected growth past the start", b1, d1)
	}
}
