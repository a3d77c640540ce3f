package bench

import (
	"fmt"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/workload"
)

// Tx2PCSweep prices the cross-shard transaction plane: two-key writes
// through three commit paths — plain per-partition puts ("plain"), a
// one-participant transaction ("single": prepare + commit record +
// apply on one shard), and a spanning transaction ("cross": the full
// two-phase commit across two back-ends) — at pipeline depths 1/4/16.
// The claim under test is that 2PC's cross-shard surcharge is the
// fan-out, not a protocol tax: at depth 16 the second participant's
// prepare and apply ride their own doorbells but everything else is
// shared with the single-shard path, so a cross-shard commit costs at
// most two doorbell round trips over single-shard. Extra carries
// doorbells/verbs/prepares per transaction so the surcharge is
// attributable.
func Tx2PCSweep(sc Scale) ([]Row, error) {
	var rows []Row
	for _, depth := range []int{1, 4, 16} {
		for _, series := range []string{"plain", "single", "cross"} {
			row, err := measureTx2PCCell(series, depth, sc)
			if err != nil {
				return nil, fmt.Errorf("tx2pc %s depth=%d: %w", series, depth, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// tx2pcKeys picks the two written keys for a series: both in partition
// 0 (plain and single) or one in partition 0 and one in partition 1
// (cross — with partitions striped round-robin over two back-ends,
// partition 1 lives on the second node).
func tx2pcKeys(p *ds.Sharded, series string) [2]uint64 {
	var keys [2]uint64
	want := [2]int{0, 0}
	if series == "cross" {
		want[1] = 1
	}
	k := uint64(1)
	for i := 0; i < 2; k++ {
		if p.ShardOf(k) == want[i] && (i == 0 || k != keys[0]) {
			keys[i] = k
			i++
		}
	}
	return keys
}

// measureTx2PCCell runs one (series, depth) cell: sc.Ops two-key writes
// against a four-partition hash table striped across two back-ends.
func measureTx2PCCell(series string, depth int, sc Scale) (Row, error) {
	ccfg := cluster.DefaultConfig()
	ccfg.Backends = 2
	ccfg.DeviceBytes = 64 << 20
	ccfg.Tracer = liveTracer
	cl, err := cluster.New(ccfg)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	fe, conns, err := cl.NewFrontend(1, core.ModeR().WithPipeline(depth))
	if err != nil {
		return Row{}, err
	}
	p, err := ds.CreatePartitioned(conns, ds.KindHashTable, "tx2pc", 4, ds.Options{
		Create: scaleCreateOpts(), Buckets: 1 << 10,
	})
	if err != nil {
		return Row{}, err
	}
	tc, err := core.NewTxCoordinator(conns[0], "tx2pc.txc")
	if err != nil {
		return Row{}, err
	}
	for k := uint64(1); k <= uint64(sc.Seed); k++ {
		if err := p.Put(k, workload.Value(k, 64)); err != nil {
			return Row{}, err
		}
		if k%256 == 0 {
			if err := p.FlushAll(); err != nil {
				return Row{}, err
			}
		}
	}
	if err := p.DrainAll(); err != nil {
		return Row{}, err
	}

	keys := tx2pcKeys(p, series)
	kv := []uint64{keys[0], keys[1]}
	vals := [][]byte{nil, nil}
	st := fe.Stats()
	before := st.Snapshot()
	start := fe.Clock().Now()
	for i := 0; i < sc.Ops; i++ {
		vals[0] = workload.Value(uint64(2*i), 64)
		vals[1] = workload.Value(uint64(2*i+1), 64)
		if series == "plain" {
			err = p.PutMulti(kv, vals)
		} else {
			err = p.TxPutMulti(tc, kv, vals)
		}
		if err != nil {
			return Row{}, err
		}
	}
	// Close the commit chain so the trailing End is inside the window —
	// the per-transaction averages then amortize it like every other End.
	if series != "plain" {
		if err := tc.Quiesce(); err != nil {
			return Row{}, err
		}
	}
	if err := p.FlushAll(); err != nil {
		return Row{}, err
	}
	elapsed := fe.Clock().Now() - start
	d := st.Snapshot().Sub(before)
	perTx := func(n int64) float64 { return float64(n) / float64(sc.Ops) }
	return Row{
		Experiment: "tx2pc", Series: series,
		Label: fmt.Sprintf("depth=%d", depth), X: float64(depth),
		KOPS: kopsOf(sc.Ops, elapsed),
		Extra: map[string]float64{
			"doorbells_per_tx": perTx(d.DoorbellGroups),
			"verbs_per_tx":     perTx(d.RDMAVerbs()),
			"prepares_per_tx":  perTx(d.TxPrepares),
			"commits":          float64(d.TxCrossCommits),
			"virtual_ns":       float64(elapsed.Nanoseconds()),
		},
	}, nil
}
