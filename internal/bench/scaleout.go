package bench

import (
	"fmt"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/workload"
)

// ScaleoutSweep measures cross-shard fan-out, the §8.3 / Fig. 13
// scaling claim: one hash table split into 1/2/4/8 partitions placed
// round-robin on 1/2/4/8 back-ends (back-ends ≤ partitions — a partition
// cannot span devices), driven through the batched cross-partition path:
// gets gathered into 64-key Sharded.GetMulti batches, 10% puts routed
// through PutMulti, under the three mode ladders at pipeline depth 16.
// Adding back-ends with a fixed workload should scale throughput
// near-linearly, because each lockstep round posts one doorbell group per
// involved back-end before settling any of them and the fan-out window
// charges max-over-backends instead of sum. Extra carries the fan-out
// counters (windows opened, virtual ns saved by the overlap) alongside
// the usual pipeline counters so the scaling can be attributed.
func ScaleoutSweep(sc Scale) ([]Row, error) {
	// The cell payloads are 8 KB rows (see scaleoutValueLen); cap the
	// population so the 8-partitions-on-1-device corner still fits its
	// 64 MB device. The curve's shape does not depend on the population,
	// only on the per-round payload.
	if sc.Seed > 1200 {
		sc.Seed = 1200
	}
	cacheB := cacheBytesFor("HashTable", sc.Seed, 10)
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"R", core.ModeR()},
		{"RC", core.ModeRC(cacheB)},
		{"RCB", core.ModeRCB(cacheB, 64)},
	}
	sizes := []int{1, 2, 4, 8}
	var rows []Row
	for _, m := range modes {
		for _, parts := range sizes {
			for _, backs := range sizes {
				if backs > parts {
					continue
				}
				row, err := measureScaleoutCell(m.name, m.mode.WithPipeline(16), sc, parts, backs)
				if err != nil {
					return nil, fmt.Errorf("scaleout %s parts=%d backs=%d: %w", m.name, parts, backs, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// newScaleCluster builds an n-back-end cluster with devices sized for
// the sweep's 8-way corner (8 back-ends at the benchmark default would
// reserve gigabytes of host memory for a quick cell).
func newScaleCluster(n int) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.Backends = n
	cfg.DeviceBytes = 64 << 20
	cfg.Tracer = liveTracer
	return cluster.New(cfg)
}

// scaleCreateOpts sizes the per-partition log areas: an 8-partition cell
// creates eight structures per device, so the default benchmark logs
// would not fit.
func scaleCreateOpts() core.CreateOptions {
	return core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 1 << 20}
}

// scaleoutValueLen sizes the sweep's payloads. Partition scaling is a
// bandwidth story: the per-key CPU cost of posting a WR is paid on the
// one front-end whatever the back-end count, so 64-byte rows would leave
// nothing for the fan-out to parallelize. Kilobyte rows make the
// per-link transfer terms dominate each lockstep round, which is exactly
// the traffic independent back-ends absorb in parallel (§8.3).
const scaleoutValueLen = 8192

// measureScaleoutCell runs one (mode, partitions, back-ends) cell. The
// key domain equals the seeded population so the multi-gets hit and every
// round moves real payload.
func measureScaleoutCell(series string, mode core.Mode, sc Scale, parts, backs int) (Row, error) {
	cl, err := newScaleCluster(backs)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	fe, conns, err := cl.NewFrontend(1, mode)
	if err != nil {
		return Row{}, err
	}
	p, err := ds.CreatePartitioned(conns, ds.KindHashTable, "scaleout", parts, ds.Options{
		Create: scaleCreateOpts(), Buckets: 1 << 10, ValueCap: scaleoutValueLen,
	})
	if err != nil {
		return Row{}, err
	}
	for k := uint64(1); k <= uint64(sc.Seed); k++ {
		if err := p.Put(k, workload.Value(k, scaleoutValueLen)); err != nil {
			return Row{}, err
		}
		if k%256 == 0 {
			if err := p.FlushAll(); err != nil {
				return Row{}, err
			}
		}
	}
	// Drain, not just flush: draining waits out replay and empties the
	// writer's overlay, so the measured gets actually travel to the
	// back-ends instead of being served from the seeding residue in DRAM.
	if err := p.DrainAll(); err != nil {
		return Row{}, err
	}

	const mget = 64
	const mput = 16
	gen := workload.New(workload.Config{Seed: 4242, Keys: uint64(sc.Seed), WritePct: 10, ValueLen: scaleoutValueLen})
	st := fe.Stats()
	before := st.Snapshot()
	start := fe.Clock().Now()
	var (
		keys    = make([]uint64, 0, mget)
		putKeys = make([]uint64, 0, mput)
		putVals = make([][]byte, 0, mput)
		done    int
	)
	issueGets := func() error {
		if len(keys) == 0 {
			return nil
		}
		if _, _, err := p.GetMulti(keys); err != nil {
			return err
		}
		done += len(keys)
		keys = keys[:0]
		return nil
	}
	issuePuts := func() error {
		if len(putKeys) == 0 {
			return nil
		}
		if err := p.PutMulti(putKeys, putVals); err != nil {
			return err
		}
		done += len(putKeys)
		putKeys, putVals = putKeys[:0], putVals[:0]
		return nil
	}
	for done+len(keys)+len(putKeys) < sc.Ops {
		op := gen.Next()
		if op.Kind == workload.OpPut {
			putKeys = append(putKeys, op.Key)
			putVals = append(putVals, workload.Value(op.Key, scaleoutValueLen))
			if len(putKeys) == mput {
				if err := issuePuts(); err != nil {
					return Row{}, err
				}
			}
			continue
		}
		keys = append(keys, op.Key)
		if len(keys) == mget {
			if err := issueGets(); err != nil {
				return Row{}, err
			}
		}
	}
	if err := issueGets(); err != nil {
		return Row{}, err
	}
	if err := issuePuts(); err != nil {
		return Row{}, err
	}
	if err := p.FlushAll(); err != nil {
		return Row{}, err
	}
	elapsed := fe.Clock().Now() - start
	d := st.Snapshot().Sub(before)
	return Row{
		Experiment: "scaleout", Series: series,
		Label: fmt.Sprintf("parts=%d backs=%d", parts, backs), X: float64(backs),
		KOPS: kopsOf(sc.Ops, elapsed),
		Extra: map[string]float64{
			"partitions":       float64(parts),
			"backends":         float64(backs),
			"verbs":            float64(d.RDMAVerbs()),
			"virtual_ns":       float64(elapsed.Nanoseconds()),
			"posted":           float64(d.PostedVerbs),
			"doorbells":        float64(d.DoorbellGroups),
			"avg_depth":        d.AvgQueueDepth(),
			"overlap_saved_ns": float64(d.OverlapSavedNS),
			"fanout_windows":   float64(d.FanoutWindows),
			"fanout_saved_ns":  float64(d.FanoutSavedNS),
		},
	}, nil
}
