package core

import (
	"errors"
	"runtime"
	"testing"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
)

// hintCell is one device, back-end and writer of the hint crash matrix; the
// probe is the operation whose commit carries the tail hints.
type hintCell struct {
	dev   *nvm.Device
	bk    *backend.Backend
	fe    *Frontend
	h     *Handle
	probe func() error
}

// hintRow is one row of the matrix: how the writer is configured and what
// its hint-carrying commit looks like.
type hintRow struct {
	name  string
	mode  Mode
	opts  CreateOptions
	room  bool // the hint rides waitOpSpace's make-room flush
	check func(t *testing.T, c *hintCell)
}

var hintRows = []hintRow{
	{name: "sync", mode: ModeR(), opts: smallOpts, check: func(t *testing.T, c *hintCell) {
		if n := c.fe.Stats().PostedVerbs.Load(); n != 0 {
			t.Fatalf("the synchronous row posted %d verbs", n)
		}
	}},
	{name: "posted", mode: ModeR().WithPipeline(4), opts: smallOpts, check: func(t *testing.T, c *hintCell) {
		if n := c.fe.Stats().PostedVerbs.Load(); n == 0 {
			t.Fatal("the posted row's commit was not posted")
		}
	}},
	// A batch no row reaches and an op log of a few records: the op record
	// that no longer fits flushes the pending memory logs alone to make room,
	// while it waits unsent in the buffer with opTail already past it.
	{name: "make-room", mode: ModeRCB(0, 64), opts: CreateOptions{MemLogSize: 256 << 10, OpLogSize: 512}, room: true},
}

func newHintCell(t *testing.T, row hintRow) *hintCell {
	t.Helper()
	prof := clock.ZeroProfile()
	dev := nvm.NewDevice(16 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	t.Cleanup(bk.Stop)
	fe := NewFrontend(FrontendOptions{ID: 1, Mode: row.mode, Profile: &prof})
	conn, err := fe.Connect(bk)
	if err != nil {
		t.Fatal(err)
	}
	h, err := conn.Create("hints", backend.TypeBST, row.opts)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 64)
	op := func() error {
		img[0]++
		if _, err := h.OpLog(1, img[:16]); err != nil {
			return err
		}
		if err := h.Write(unit, img); err != nil {
			return err
		}
		return h.EndOp()
	}
	commits := func() int64 { return fe.Stats().TxCommits.Load() }
	if row.room {
		// Fill the op log to where the next record does not fit; its flush is
		// the handle's first, and the hint flush.
		if err := op(); err != nil {
			t.Fatal(err)
		}
		rec := h.opTail
		for h.opTail+2*rec <= h.opArea.Size {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		if commits() != 0 {
			t.Fatal("the batch flushed while the op log was filling")
		}
	} else {
		for i := 0; i < 3; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.flushCnt = hintEvery - 1
	return &hintCell{dev: dev, bk: bk, fe: fe, h: h, probe: op}
}

// hints reads the two durable hint words off the device.
func (c *hintCell) hints(t *testing.T) (mem, op uint64) {
	t.Helper()
	aux := backend.AddrOff(c.h.AuxAddr())
	mem, err := c.dev.Load64(aux + backend.AuxMemTailOff)
	if err != nil {
		t.Fatal(err)
	}
	op, err = c.dev.Load64(aux + backend.AuxOpTailOff)
	if err != nil {
		t.Fatal(err)
	}
	return mem, op
}

// crashAndRecover power-fails the cell and recovers it twice over a fresh
// back-end: once with the hints zeroed — the scan from LPN/OPN, which is
// right by construction — and once with the hints the crash left. It fails
// the test unless both writers resume at the same tails and neither durable
// hint lies above them.
func (c *hintCell) crashAndRecover(t *testing.T, what string) (memTail, opTail uint64) {
	t.Helper()
	c.bk.Stop()
	c.dev.Crash(nil)
	memHint, opHint := c.hints(t)
	prof := clock.ZeroProfile()
	bk, err := backend.New(c.dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatalf("%s: recovery: %v", what, err)
	}
	bk.Start()
	defer bk.Stop()
	aux := backend.AddrOff(c.h.AuxAddr())
	reopen := func(id uint16, mem, op uint64) *Handle {
		if c.dev.Store64(aux+backend.AuxMemTailOff, mem) != nil || c.dev.Store64(aux+backend.AuxOpTailOff, op) != nil {
			t.Fatalf("%s: cannot plant the hints", what)
		}
		conn, err := NewFrontend(FrontendOptions{ID: id, Mode: ModeR(), Profile: &prof}).Connect(bk)
		if err != nil {
			t.Fatalf("%s: reconnect: %v", what, err)
		}
		h, err := conn.Open("hints", true)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		return h
	}
	scan, hinted := reopen(2, 0, 0), reopen(3, memHint, opHint)
	if hinted.memTail != scan.memTail || hinted.opTail != scan.opTail {
		t.Fatalf("%s: hints (%d,%d) recover tails (%d,%d), the scan from LPN/OPN (%d,%d)",
			what, memHint, opHint, hinted.memTail, hinted.opTail, scan.memTail, scan.opTail)
	}
	if memHint > scan.memTail || opHint > scan.opTail {
		t.Fatalf("%s: durable hints (%d,%d) lie above the durable valid tails (%d,%d)", what, memHint, opHint, scan.memTail, scan.opTail)
	}
	return scan.memTail, scan.opTail
}

// TestHintCrashMatrix cuts the power at every persistence step — every
// segment of every write verb, torn at half and lost whole — of a commit that
// carries the tail hints, synchronous and posted, and of a make-room flush
// that lands on a hint flush, and checks the invariant the piggy-backed hints
// rest on (persistHints): a durable hint never lies above the durable valid
// tail, so a writer recovers the tails a scan without hints finds.
func TestHintCrashMatrix(t *testing.T) {
	for _, row := range hintRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			// Counting pass: the probe's write-class consults, and what an
			// undisturbed hint flush leaves.
			c := newHintCell(t, row)
			aux := backend.AddrOff(c.h.AuxAddr())
			if aux%nvm.LineSize != 0 || backend.AuxOpTailOff != backend.AuxMemTailOff+8 ||
				backend.AuxMemTailOff/nvm.LineSize != (backend.AuxOpTailOff+7)/nvm.LineSize {
				t.Fatalf("the hint words (aux %#x +%d, +%d) are not neighbours in one %d-byte line: a power failure could tear the segment",
					aux, backend.AuxMemTailOff, backend.AuxOpTailOff, nvm.LineSize)
			}
			steps, hintStep := 0, 0
			c.h.c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
				if op == rdma.OpWrite {
					steps++
					if off == aux+backend.AuxMemTailOff {
						hintStep = steps
					}
				}
				return rdma.Fault{}
			})
			before := c.fe.Stats().Snapshot()
			if err := c.probe(); err != nil {
				t.Fatal(err)
			}
			c.h.c.Endpoint().SetFault(nil)
			atomics := int64(0)
			if row.room {
				atomics = 1 // waitOpSpace's load of the truncation point
			}
			if d := c.fe.Stats().Snapshot().Sub(before); d.TxCommits != 1 || d.RDMAAtomic != atomics || hintStep == 0 {
				t.Fatalf("the probe made %d commits and %d atomic verbs, hint segment at step %d of %d; want one commit carrying the hints and %d atomic verbs",
					d.TxCommits, d.RDMAAtomic, hintStep, steps, atomics)
			}
			if row.check != nil {
				row.check(t, c)
			}
			wantMem, wantOp := c.h.memTail, c.h.opTail
			// The op hint is the tail — short, on a make-room flush, of the
			// record that waited in the buffer.
			if mem, op := c.hints(t); mem != wantMem || row.room && op >= wantOp || !row.room && op != wantOp {
				t.Fatalf("the hint flush left hints (%d,%d) under tails (%d,%d); make-room=%v", mem, op, wantMem, wantOp, row.room)
			}
			if mem, op := c.crashAndRecover(t, "no crash"); mem != wantMem || op != wantOp {
				t.Fatalf("recovered tails (%d,%d) after the whole probe, want (%d,%d)", mem, op, wantMem, wantOp)
			}

			for k := 1; k <= steps; k++ {
				for _, lost := range []bool{false, true} {
					c := newHintCell(t, row)
					seen, dead := 0, false
					c.h.c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
						if dead {
							return rdma.Fault{Err: rdma.ErrDisconnected}
						}
						if op != rdma.OpWrite {
							return rdma.Fault{}
						}
						if seen++; seen != k {
							return rdma.Fault{}
						}
						dead = true
						f := rdma.Fault{Err: rdma.ErrDisconnected}
						if !lost {
							f.Truncate = n / 2
						}
						return f
					})
					if err := c.probe(); !errors.Is(err, rdma.ErrDisconnected) {
						t.Fatalf("step %d: probe returned %v, want ErrDisconnected", k, err)
					}
					what := "torn"
					if lost {
						what = "lost"
					}
					c.crashAndRecover(t, what)
				}
			}
			t.Logf("%s: %d crash points, hint segment at step %d", row.name, 2*steps, hintStep)
		})
	}
}

// TestRecoverTailsDistrustsTornHint: a front-end that dies inside the hint
// segment can leave a word that mixes an old and a new tail — below the
// durable tail, on no record boundary. With the replayer behind it, the
// cursor does not mask such a hint; recovery must notice that no record
// starts there and scan from the cursor instead of resuming mid-record, over
// records the replayer has yet to apply.
func TestRecoverTailsDistrustsTornHint(t *testing.T) {
	row := hintRows[0]
	c := newHintCell(t, row)
	if err := c.h.Drain(); err != nil {
		t.Fatal(err)
	}
	// The replayer stops here; three more records stay unapplied.
	c.bk.Halt()
	lpn, opn := c.h.memTail, c.h.opTail
	for i := 0; i < 3; i++ {
		if err := c.probe(); err != nil {
			t.Fatal(err)
		}
	}
	memTail, opTail := c.h.memTail, c.h.opTail
	aux := backend.AddrOff(c.h.AuxAddr())
	if c.dev.Store64(aux+backend.AuxMemTailOff, lpn+3) != nil || c.dev.Store64(aux+backend.AuxOpTailOff, opn+3) != nil {
		t.Fatal("cannot plant the hints")
	}

	// Reopen against the halted node: the scans run with the cursors where
	// the replayer stopped. Only once they are done — the catch-up wait's
	// first probe is the recovery's fifth atomic load — does a recovered
	// back-end apply the rest and let the reopen finish.
	prof := clock.ZeroProfile()
	fe := NewFrontend(FrontendOptions{ID: 2, Mode: ModeR(), Profile: &prof})
	conn, err := fe.Connect(c.bk)
	if err != nil {
		t.Fatal(err)
	}
	atomics := fe.Stats().RDMAAtomic.Load()
	type opened struct {
		h   *Handle
		err error
	}
	done := make(chan opened, 1)
	go func() {
		h, err := conn.Open("hints", true)
		done <- opened{h, err}
	}()
	for fe.Stats().RDMAAtomic.Load() < atomics+5 {
		runtime.Gosched()
	}
	bk, err := backend.New(c.dev, backend.Options{ID: 0, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	bk.Start()
	defer bk.Stop()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if n := fe.Stats().RDMAAtomic.Load() - atomics; n != 6 {
		t.Fatalf("the reopen made %d atomic loads, want 6: the back-end was not released on the catch-up probe", n)
	}
	if got.h.memTail != memTail || got.h.opTail != opTail {
		t.Fatalf("torn hints (%d,%d) over cursors (%d,%d) recover tails (%d,%d), want (%d,%d)",
			lpn+3, opn+3, lpn, opn, got.h.memTail, got.h.opTail, memTail, opTail)
	}
}
