package bench

import (
	"encoding/binary"
	"fmt"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/workload"
)

const (
	rebalParts      = 32
	rebalSmallBacks = 2
	rebalFullBacks  = 8
	rebalSliceOps   = 64 // live writes inside each double-log window
	rebalWindowMult = 6  // measured window, in units of (keys+steady)
)

// RebalanceSweep prices elastic growth as an online operation: an
// elastic hash table starts consolidated on 2 of 8 back-ends, and the
// consistent-hash ring admits the other six members WHILE the writer
// keeps committing — workload slices run inside each double-log window,
// so live writes land on both sides before the cutover flips the map.
//
// Migration cost scales with the structure's op history (handoff is
// semantic re-execution, not a byte copy), so the baseline is a control
// WORLD, not a control phase: a second identical cluster runs the same
// seeded workload for the same window with no migrations. Running the
// baseline as a phase before the growth would feed its own ops back
// into the histories the handoffs stream, overstating the dip.
//
// Three rows come out, all on the virtual clock:
//
//   - "steady": KOPS over the control world's window on the 2-back-end
//     placement.
//   - "migrating": KOPS over the experiment world's identical window
//     with every planned handoff inside it — streamed history,
//     double-logged writes, drains and map flips all on the clock. The
//     online claim: dip_pct relative to steady stays under 25%.
//   - "grown": KOPS over one more window on the settled 8-back-end
//     placement; spreading the partitions must not cost throughput
//     (the Fig. 10 shape).
//
// Correctness rides along as a per-key write counter: every put encodes
// (key, writes-so-far), and a FRESH front-end routed purely by the
// persisted versioned map reads every key back after the growth. A lost
// committed write surfaces as a stale counter, a duplicated or replayed
// one as a counter from the wrong side — lost_writes and dup_writes in
// the "grown" row must both be zero.
func RebalanceSweep(sc Scale) ([]Row, error) {
	windowOps := rebalWindowMult * (sc.Keys + sc.Ops)

	// Control world: same placement, seed and window, no migrations.
	ctl, err := newRebalWorld(sc)
	if err != nil {
		return nil, err
	}
	steadyKOPS, err := ctl.measure(windowOps)
	ctl.cl.Stop()
	if err != nil {
		return nil, err
	}

	w, err := newRebalWorld(sc)
	if err != nil {
		return nil, err
	}
	defer w.cl.Stop()

	// Grow 2 -> 8. Each handoff runs a workload slice inside its
	// double-log window (AfterStream fires between the snapshot and the
	// flip), and the remainder of the window's workload follows — the
	// whole interval, streaming and map flips included, is on the clock.
	for b := rebalSmallBacks; b < rebalFullBacks; b++ {
		w.ring.Add(b)
	}
	moves := cluster.PlanMoves(w.p, w.ring)
	paced := len(moves) * rebalSliceOps
	if paced > windowOps {
		return nil, fmt.Errorf("rebalance window too small: %d paced ops over %d moves exceed %d", paced, len(moves), windowOps)
	}
	before := w.fe.Stats().Snapshot()
	growStart := w.fe.Clock().Now()
	var streamed int
	for _, mv := range moves {
		n, err := cluster.Rebalance(w.p, mv.Part, w.conns[mv.To], cluster.RebalanceHooks{
			AfterStream: func(*ds.Migration, int) error { return w.runSlice(rebalSliceOps) },
		})
		if err != nil {
			return nil, fmt.Errorf("grow part %d -> %d: %w", mv.Part, mv.To, err)
		}
		streamed += n
	}
	if err := w.runSlice(windowOps - paced); err != nil {
		return nil, err
	}
	if err := w.p.DrainAll(); err != nil {
		return nil, err
	}
	duringKOPS := kopsOf(windowOps, w.fe.Clock().Now()-growStart)
	delta := w.fe.Stats().Snapshot().Sub(before)
	dipPct := (1 - duringKOPS/steadyKOPS) * 100

	grownKOPS, err := w.measure(windowOps)
	if err != nil {
		return nil, err
	}

	// The oracle reads through a FRESH front-end: routing comes from the
	// persisted versioned map alone, so a partition whose history was
	// truncated or double-applied in a handoff cannot hide behind the
	// writer's in-memory handles.
	_, rconns, err := w.cl.NewFrontend(9, core.ModeR())
	if err != nil {
		return nil, err
	}
	rp, err := ds.OpenSharded(rconns, "rebal", false, w.opts)
	if err != nil {
		return nil, err
	}
	var lost, dup float64
	for k, want := range w.counts {
		v, ok, err := rp.Get(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			lost++
			continue
		}
		if gotK, gotC := decodeRebalValue(v); gotK != k || gotC != want {
			dup++
		}
	}
	owners := map[int]bool{}
	for pi := 0; pi < rebalParts; pi++ {
		owners[w.p.Owner(pi)] = true
	}

	return []Row{
		{
			Experiment: "rebalance", Series: "steady", Label: "2-backends",
			X: rebalSmallBacks, KOPS: steadyKOPS,
		},
		{
			Experiment: "rebalance", Series: "migrating", Label: "grow-window",
			X: float64(len(moves)), KOPS: duringKOPS,
			Extra: map[string]float64{
				"dip_pct":      dipPct,
				"moves":        float64(len(moves)),
				"streamed_ops": float64(streamed),
				"double_ops":   float64(delta.DoubleLoggedOps),
				"cutovers":     float64(delta.CutoverEpochs),
			},
		},
		{
			Experiment: "rebalance", Series: "grown", Label: "8-backends",
			X: rebalFullBacks, KOPS: grownKOPS,
			Extra: map[string]float64{
				"spread":        float64(len(owners)),
				"verified_keys": float64(len(w.counts)),
				"lost_writes":   lost,
				"dup_writes":    dup,
			},
		},
	}, nil
}

// rebalWorld is one fully seeded cluster + elastic structure, identical
// between the control and experiment runs.
type rebalWorld struct {
	cl     *cluster.Cluster
	fe     *core.Frontend
	conns  []*core.Conn
	p      *ds.Sharded
	ring   *cluster.Ring
	opts   ds.Options
	counts map[uint64]uint64
	gen    *workload.Generator
	keys   uint64
}

func newRebalWorld(sc Scale) (*rebalWorld, error) {
	cl, err := newMultiCluster(rebalFullBacks)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*rebalWorld, error) {
		cl.Stop()
		return nil, err
	}
	mode := core.ModeRCB(cacheBytesFor("HashTable", sc.Keys, 10), 64)
	fe, conns, err := cl.NewFrontend(1, mode)
	if err != nil {
		return fail(err)
	}
	opts := ds.Options{Create: core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 1 << 20}, Buckets: 1 << 10}
	p, err := ds.CreateElastic(conns, ds.KindHashTable, "rebal", rebalParts, opts)
	if err != nil {
		return fail(err)
	}
	// Consolidate the default spread onto back-ends {0,1} before any
	// data exists — setup, not measurement. The moves write explicit
	// owner words, so placement is pinned to the ring from here on.
	ring := cluster.NewRing(32)
	ring.Add(0)
	ring.Add(1)
	for _, mv := range cluster.PlanMoves(p, ring) {
		if _, err := cluster.Rebalance(p, mv.Part, conns[mv.To], cluster.RebalanceHooks{}); err != nil {
			return fail(fmt.Errorf("consolidating part %d: %w", mv.Part, err))
		}
	}
	w := &rebalWorld{
		cl: cl, fe: fe, conns: conns, p: p, ring: ring, opts: opts,
		counts: make(map[uint64]uint64, sc.Keys),
		gen:    workload.New(workload.Config{Seed: 42, Keys: uint64(sc.Keys), WritePct: 100, ValueLen: 16}),
		keys:   uint64(sc.Keys),
	}
	// Seed the FULL key space so every measured phase is pure updates:
	// otherwise the insert/update mix shifts as the table fills and the
	// steady-vs-grown comparison conflates handoff cost with table aging.
	for k := uint64(1); k <= w.keys; k++ {
		if err := w.put(k); err != nil {
			return fail(err)
		}
	}
	if err := p.DrainAll(); err != nil {
		return fail(err)
	}
	return w, nil
}

func (w *rebalWorld) put(k uint64) error {
	w.counts[k]++
	return w.p.Put(k, rebalValue(k, w.counts[k]))
}

func (w *rebalWorld) runSlice(n int) error {
	for i := 0; i < n; i++ {
		if err := w.put(1 + w.gen.Next().Key%w.keys); err != nil {
			return err
		}
	}
	return nil
}

func (w *rebalWorld) measure(n int) (float64, error) {
	start := w.fe.Clock().Now()
	if err := w.runSlice(n); err != nil {
		return 0, err
	}
	if err := w.p.DrainAll(); err != nil {
		return 0, err
	}
	return kopsOf(n, w.fe.Clock().Now()-start), nil
}

// rebalValue encodes the per-key write counter the oracle checks: 16
// bytes of (key, count), so every committed put has a distinct value
// and the LAST one is recomputable from the oracle alone.
func rebalValue(key, count uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], count)
	return b
}

func decodeRebalValue(v []byte) (key, count uint64) {
	if len(v) < 16 {
		return 0, 0
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
}
