package ds

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
)

// The cross-shard transaction crash matrix: a two-partition store spans
// two back-ends, with the transaction coordinator co-located with
// partition 0. One cross-shard TxPutMulti is the probe; its write-class
// verbs on one chosen link are enumerated, and at each verb in turn the
// link dies (the dying write torn mid-transfer), the node behind it
// power-fails, and the cell recovers — node restart with a device-scan
// resolver, stale locks broken, presumed-abort consultation through a
// reopened coordinator. The invariant at every point is cross-shard
// atomicity: the surviving state shows the transfer on both partitions
// or on neither, and an aborted durable prepare's log span lands in the
// reclaim ledger (never leaked).
//
// Killing link 0 covers coordinator death — mid-prepare of partition 0,
// between prepare and commit, and mid-commit-record (torn). Killing
// link 1 covers participant death — mid-prepare and after the commit
// record is durable but before the participant sees its decision.

// txCell is the two-node cross-shard cell.
type txCell struct {
	t       *testing.T
	devs    [2]*nvm.Device
	bks     [2]*backend.Backend
	stopped [2]bool
	conns   []*core.Conn
	p       *Sharded
	tc      *core.TxCoordinator
	kA, kB  uint64 // kA owned by partition 0 (node 0), kB by partition 1 (node 1)
}

var (
	txOldA = []byte("old-balance-A")
	txOldB = []byte("old-balance-B")
	txNewA = []byte("new-balance-A")
	txNewB = []byte("new-balance-B")
)

func newTxCell(t *testing.T) *txCell {
	t.Helper()
	cell := &txCell{t: t}
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: &zprof})
	for i := 0; i < 2; i++ {
		i := i
		cell.devs[i] = nvm.NewDevice(64 << 20)
		bk, err := backend.New(cell.devs[i], backend.Options{ID: uint16(i), Profile: &zprof})
		if err != nil {
			t.Fatal(err)
		}
		bk.Start()
		cell.bks[i] = bk
		t.Cleanup(func() {
			if !cell.stopped[i] {
				cell.bks[i].Stop()
			}
		})
		c, err := fe.Connect(bk)
		if err != nil {
			t.Fatal(err)
		}
		cell.conns = append(cell.conns, c)
	}
	p, err := CreatePartitioned(cell.conns, KindHashTable, "txm", 2, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	cell.p = p
	// Pick one key per partition; partition i lives on node i.
	cell.kA, cell.kB = 0, 0
	for k := uint64(1); cell.kA == 0 || cell.kB == 0; k++ {
		switch p.ShardOf(k) {
		case 0:
			if cell.kA == 0 {
				cell.kA = k
			}
		case 1:
			if cell.kB == 0 {
				cell.kB = k
			}
		}
	}
	if err := p.Put(cell.kA, txOldA); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(cell.kB, txOldB); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	tc, err := core.NewTxCoordinator(cell.conns[0], "txm.txc")
	if err != nil {
		t.Fatal(err)
	}
	cell.tc = tc
	return cell
}

// probe runs the cross-shard transfer.
func (c *txCell) probe() error {
	return c.p.TxPutMulti(c.tc, []uint64{c.kA, c.kB}, [][]byte{txNewA, txNewB})
}

// countTxProbeVerbs counts the probe's write-class verbs on link ep.
func countTxProbeVerbs(t *testing.T, ep int) int {
	t.Helper()
	cell := newTxCell(t)
	n := 0
	cell.conns[ep].Endpoint().SetFault(func(op rdma.Op, off uint64, sz int) rdma.Fault {
		if writeClass(op) {
			n++
		}
		return rdma.Fault{}
	})
	if err := cell.probe(); err != nil {
		t.Fatalf("counting pass probe failed: %v", err)
	}
	cell.conns[ep].Endpoint().SetFault(nil)
	return n
}

// waitFor polls cond with a deadline (the back-end replayer settles
// decisions asynchronously).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// runTxCrashPoint kills link ep at its k-th write-class verb, crashes
// the node behind it, recovers, and checks cross-shard atomicity.
func runTxCrashPoint(t *testing.T, ep, k int) {
	t.Helper()
	cell := newTxCell(t)
	seen := 0
	cell.conns[ep].Endpoint().SetFault(func(op rdma.Op, off uint64, sz int) rdma.Fault {
		if !writeClass(op) {
			return rdma.Fault{}
		}
		seen++
		if seen < k {
			return rdma.Fault{}
		}
		// The link stays dead from verb k on; the dying write reaches
		// the device torn.
		f := rdma.Fault{Err: rdma.ErrDisconnected}
		if op == rdma.OpWrite && seen == k {
			f.Truncate = sz / 2
		}
		return f
	})
	if err := cell.probe(); err == nil {
		t.Fatalf("crash point %d/%d: probe succeeded despite dead link", ep, k)
	}
	cell.conns[ep].Endpoint().SetFault(nil)

	// The node behind the dead link power-fails.
	cell.bks[ep].Stop()
	cell.stopped[ep] = true
	cell.devs[ep].Crash(nil)

	// Restart it with a resolver that consults the coordinator's device
	// directly (the §7.2 consultation pass, device-scan form).
	coordDev := cell.devs[0]
	resolver := func(node, slot uint16, txid uint64) backend.TxOutcome {
		if node != 0 {
			return backend.TxUnknown
		}
		out, err := backend.ScanTxOutcome(coordDev, slot, txid)
		if err != nil {
			return backend.TxUnknown
		}
		return out
	}
	bk2, err := backend.New(cell.devs[ep], backend.Options{ID: uint16(ep), Profile: &zprof, TxResolver: resolver})
	if err != nil {
		t.Fatalf("crash point %d/%d: node recovery: %v", ep, k, err)
	}
	bk2.Start()
	cell.bks[ep] = bk2
	cell.stopped[ep] = false

	// Fresh writer front-end: break the dead writer's locks, reopen the
	// store and the coordinator, resolve in-doubt state.
	fe2 := core.NewFrontend(core.FrontendOptions{ID: 7, Mode: core.ModeR(), Profile: &zprof})
	conns2 := make([]*core.Conn, 2)
	for i := 0; i < 2; i++ {
		c2, err := fe2.Connect(cell.bks[i])
		if err != nil {
			t.Fatalf("crash point %d/%d: reconnect %d: %v", ep, k, i, err)
		}
		conns2[i] = c2
		raw, err := c2.Open(fmt.Sprintf("txm#%d", i), true)
		if err != nil {
			t.Fatalf("crash point %d/%d: raw open: %v", ep, k, err)
		}
		if err := raw.BreakLock(1); err != nil {
			t.Fatalf("crash point %d/%d: break lock: %v", ep, k, err)
		}
	}
	tc2, err := core.NewTxCoordinator(conns2[0], "txm.txc")
	if err != nil {
		t.Fatalf("crash point %d/%d: coordinator reopen: %v", ep, k, err)
	}
	p2, err := OpenSharded(conns2, "txm", true, crashOpts())
	if err != nil {
		t.Fatalf("crash point %d/%d: reopen: %v", ep, k, err)
	}
	// Which participants still hold durable unresolved prepares, before
	// consultation settles them.
	handles := p2.Handles()
	inDoubt := make([]int, len(handles))
	for i, h := range handles {
		inDoubt[i] = len(h.InDoubtPrepares())
	}
	if _, _, err := p2.TxRecover(tc2); err != nil {
		t.Fatalf("crash point %d/%d: tx recovery: %v", ep, k, err)
	}
	// Resolution must leave nothing held on either node.
	for i, h := range handles {
		i, h := i, h
		waitFor(t, "in-doubt resolution", func() bool {
			ids, err := cell.bks[i].InDoubt(h.Slot())
			return err == nil && len(ids) == 0
		})
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatalf("crash point %d/%d: drain: %v", ep, k, err)
	}

	vA, okA, err := p2.Get(cell.kA)
	if err != nil || !okA {
		t.Fatalf("crash point %d/%d: read A: ok=%v err=%v", ep, k, okA, err)
	}
	vB, okB, err := p2.Get(cell.kB)
	if err != nil || !okB {
		t.Fatalf("crash point %d/%d: read B: ok=%v err=%v", ep, k, okB, err)
	}
	newA, newB := bytes.Equal(vA, txNewA), bytes.Equal(vB, txNewB)
	if newA != newB {
		t.Fatalf("crash point %d/%d: atomicity violated: A new=%v B new=%v", ep, k, newA, newB)
	}
	if !newA {
		if !bytes.Equal(vA, txOldA) || !bytes.Equal(vB, txOldB) {
			t.Fatalf("crash point %d/%d: aborted state mangled: %q / %q", ep, k, vA, vB)
		}
		// Reclaim-ledger model check: a durable prepare that resolved to
		// abort must have its log span ledgered for the next scrub —
		// prepared pages are never leaked.
		for i, h := range handles {
			if inDoubt[i] == 0 {
				continue
			}
			i, h := i, h
			waitFor(t, "aborted prepare ledgered", func() bool {
				mem, _, err := cell.bks[i].ReclaimPending(h.Slot())
				return err == nil && mem > 0
			})
		}
	}
	// Settled either way: no pending op-log records may remain for
	// re-execution (the decision's cover retires them).
	for i, h := range handles {
		ops, err := h.PendingOps()
		if err != nil {
			t.Fatalf("crash point %d/%d: pending ops %d: %v", ep, k, i, err)
		}
		if len(ops) != 0 {
			t.Fatalf("crash point %d/%d: partition %d left %d ops for re-execution", ep, k, i, len(ops))
		}
	}
}

func TestTxCrashMatrixCrossShard(t *testing.T) {
	for ep := 0; ep < 2; ep++ {
		ep := ep
		role := "coordinator"
		if ep == 1 {
			role = "participant"
		}
		t.Run(fmt.Sprintf("%s-link", role), func(t *testing.T) {
			n := countTxProbeVerbs(t, ep)
			if n == 0 {
				t.Fatal("probe issued no write-class verbs on this link")
			}
			for k := 1; k <= n; k++ {
				runTxCrashPoint(t, ep, k)
			}
			t.Logf("%s link: %d crash points survived", role, n)
		})
	}
}

// TestTxCrashCommitDurableBeforeApply commits fully, then power-fails
// the remote participant before its replayer materializes the buffered
// prepare: recovery must replay prepare + decision from the log and
// surface the committed value.
func TestTxCrashCommitDurableBeforeApply(t *testing.T) {
	cell := newTxCell(t)
	if err := cell.probe(); err != nil {
		t.Fatal(err)
	}
	// No drain: the decision is durable in node 1's log but its
	// application may be anywhere between buffered and persisted.
	cell.bks[1].Stop()
	cell.stopped[1] = true
	cell.devs[1].Crash(nil)
	bk2, err := backend.New(cell.devs[1], backend.Options{ID: 1, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	bk2.Start()
	cell.bks[1] = bk2
	cell.stopped[1] = false

	fe2 := core.NewFrontend(core.FrontendOptions{ID: 7, Mode: core.ModeR(), Profile: &zprof})
	conns2 := make([]*core.Conn, 2)
	for i := 0; i < 2; i++ {
		c2, err := fe2.Connect(cell.bks[i])
		if err != nil {
			t.Fatal(err)
		}
		conns2[i] = c2
		raw, err := c2.Open(fmt.Sprintf("txm#%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := raw.BreakLock(1); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := OpenSharded(conns2, "txm", true, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.DrainAll(); err != nil {
		t.Fatal(err)
	}
	vA, okA, err := p2.Get(cell.kA)
	if err != nil || !okA {
		t.Fatalf("read A: ok=%v err=%v", okA, err)
	}
	vB, okB, err := p2.Get(cell.kB)
	if err != nil || !okB {
		t.Fatalf("read B: ok=%v err=%v", okB, err)
	}
	if !bytes.Equal(vA, txNewA) || !bytes.Equal(vB, txNewB) {
		t.Fatalf("committed transfer lost across crash: %q / %q", vA, vB)
	}
}
