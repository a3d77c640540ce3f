package bench

import (
	"fmt"
	"sync"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/fault"
	"asymnvm/internal/workload"
)

// MultiWriterSweep prices the beyond-SWMR write paths as a fig8
// extension: instead of one writer against N readers, a writers×readers
// matrix over the three concurrency mechanisms.
//
//   - "striped": W front-ends write ONE striped hash table through
//     per-stripe shared writer locks. Writers own disjoint stripe sets,
//     so aggregate throughput should scale with W (the pinned gate:
//     4 writers ≥ 2.5× one writer at equal readers) while
//     StripeConflicts stays zero — contention is per stripe, not per
//     structure.
//   - "mvcas": four lock-free MV writers publish versions of one MV-BST
//     by root CAS. A deterministic turn token serializes most rounds and
//     deliberately races one writer pair every fourth round, so the
//     abort (lost-CAS re-execution) rate is bounded by construction —
//     the gate pins it under 20%.
//   - "mirror": reads served from an NVM mirror replica under a
//     staleness budget. The primary keeps writing in batches without
//     kicking the replica's replayer, so the mirror's epoch lag ramps
//     deterministically; the driver syncs only when the next batch would
//     overrun the budget. max_served_lag must stay within budget.
//
// All cells run on the virtual clock: writer/aggregate KOPS are sums of
// per-front-end rates measured on each front-end's own clock (the fig9
// convention), so reruns are comparable under benchcmp.
func MultiWriterSweep(sc Scale) ([]Row, error) {
	var rows []Row
	for _, w := range []int{1, 2, 4} {
		for _, r := range []int{0, 2} {
			row, err := measureStripedCell(w, r, sc)
			if err != nil {
				return nil, fmt.Errorf("multiwriter striped w=%d r=%d: %w", w, r, err)
			}
			rows = append(rows, row)
		}
	}
	row, err := measureMVCASCell(sc)
	if err != nil {
		return nil, fmt.Errorf("multiwriter mvcas: %w", err)
	}
	rows = append(rows, row)
	row, err = measureMirrorCell(sc)
	if err != nil {
		return nil, fmt.Errorf("multiwriter mirror: %w", err)
	}
	rows = append(rows, row)
	return rows, nil
}

const mwStripes = 8

// mwCreateOpts sizes per-stripe logs: eight stripes must fit the device
// alongside their data.
func mwCreateOpts() core.CreateOptions {
	return core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 1 << 20}
}

// stripedWriterKeys deals keys to writers so each writer only ever
// touches its own stripes (stripe i belongs to writer i mod W): the
// scaling cell measures the mechanism's fixed costs, not artificial
// key collisions.
func stripedWriterKeys(s *ds.Sharded, writers, perWriter int) [][]uint64 {
	pools := make([][]uint64, writers)
	filled := 0
	for k := uint64(1); filled < writers; k++ {
		w := s.ShardOf(k) % writers
		if len(pools[w]) < perWriter {
			pools[w] = append(pools[w], k)
			if len(pools[w]) == perWriter {
				filled++
			}
		}
	}
	return pools
}

// measureStripedCell runs W writer front-ends (stripe-disjoint keys)
// and R reader front-ends against one striped hash table. KOPS is the
// aggregate writer rate; reader throughput and stripe-lock conflicts
// ride in Extra.
func measureStripedCell(writers, readers int, sc Scale) (Row, error) {
	cl, err := newAsymCluster(256 << 20)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	opts := ds.Options{Create: mwCreateOpts(), Buckets: 1 << 10}
	wfes := make([]*core.Frontend, writers)
	wkvs := make([]*ds.Sharded, writers)
	fe0, conns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		return Row{}, err
	}
	s, err := ds.CreateStriped(conns[0], ds.KindHashTable, "mw", mwStripes, opts)
	if err != nil {
		return Row{}, err
	}
	for k := 1; k <= sc.Seed; k++ {
		if err := s.Put(uint64(k), workload.Value(uint64(k), 64)); err != nil {
			return Row{}, err
		}
	}
	wfes[0], wkvs[0] = fe0, s
	for w := 1; w < writers; w++ {
		fe, cs, err := cl.NewFrontend(uint16(1+w), core.ModeR())
		if err != nil {
			return Row{}, err
		}
		kv, err := ds.OpenSharded(cs[:1], "mw", true, opts)
		if err != nil {
			return Row{}, err
		}
		wfes[w], wkvs[w] = fe, kv
	}
	pools := stripedWriterKeys(s, writers, sc.Ops/writers)

	type res struct {
		kops      float64
		conflicts int64
		err       error
	}
	stop := make(chan struct{})
	rres := make([]res, readers)
	var rwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			fe, cs, err := cl.NewFrontend(uint16(10+i), core.ModeR())
			if err != nil {
				rres[i].err = err
				return
			}
			kv, err := ds.OpenSharded(cs[:1], "mw", false, opts)
			if err != nil {
				rres[i].err = err
				return
			}
			gen := workload.New(workload.Config{Seed: int64(i), Keys: uint64(sc.Seed), WritePct: 0, ValueLen: 64})
			start := fe.Clock().Now()
			n := 0
			for {
				select {
				case <-stop:
					rres[i].kops = kopsOf(n, fe.Clock().Now()-start)
					return
				default:
				}
				if _, _, err := kv.Get(1 + gen.Next().Key%uint64(sc.Seed)); err != nil {
					rres[i].err = err
					return
				}
				n++
			}
		}()
	}

	wres := make([]res, writers)
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			st := wfes[w].Stats()
			before := st.Snapshot()
			start := wfes[w].Clock().Now()
			for i, k := range pools[w] {
				if err := wkvs[w].Put(k, workload.Value(uint64(i), 64)); err != nil {
					wres[w].err = err
					return
				}
			}
			wres[w].kops = kopsOf(len(pools[w]), wfes[w].Clock().Now()-start)
			wres[w].conflicts = st.Snapshot().Sub(before).StripeConflicts
		}()
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	var wAgg, rAgg float64
	var conflicts int64
	for _, r := range wres {
		if r.err != nil {
			return Row{}, r.err
		}
		wAgg += r.kops
		conflicts += r.conflicts
	}
	for _, r := range rres {
		if r.err != nil {
			return Row{}, r.err
		}
		rAgg += r.kops
	}
	return Row{
		Experiment: "multiwriter", Series: "striped",
		Label: fmt.Sprintf("w=%d,r=%d", writers, readers), X: float64(writers),
		KOPS: wAgg,
		Extra: map[string]float64{
			"writers": float64(writers), "readers": float64(readers),
			"stripe_conflicts": float64(conflicts), "reader_kops": rAgg,
		},
	}, nil
}

// measureMVCASCell drives four lock-free MV writers through a shared
// MV-BST. Rounds are mostly token-serialized; every fourth round one
// rotating writer pair races deliberately, so CAS aborts occur but the
// rate is bounded by the schedule (at most one retry per race, one race
// per four rounds of four puts).
func measureMVCASCell(sc Scale) (Row, error) {
	cl, err := newAsymCluster(256 << 20)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	opts := ds.Options{Create: mwCreateOpts()}
	_, conns, err := cl.NewFrontend(1, core.ModeRC(1<<20))
	if err != nil {
		return Row{}, err
	}
	seed, err := ds.CreateMVBST(conns[0], "mwmv", opts)
	if err != nil {
		return Row{}, err
	}
	if err := seed.Put(1<<40, workload.Value(1, 64)); err != nil { // non-empty root
		return Row{}, err
	}
	if err := seed.Close(); err != nil {
		return Row{}, err
	}
	const writers = 4
	fes := make([]*core.Frontend, writers)
	ms := make([]*ds.MVMulti, writers)
	for w := 0; w < writers; w++ {
		fe, cs, err := cl.NewFrontend(uint16(2+w), core.ModeRC(1<<20))
		if err != nil {
			return Row{}, err
		}
		m, err := ds.OpenMVMulti(cs[0], ds.KindMVBST, "mwmv", opts)
		if err != nil {
			return Row{}, err
		}
		fes[w], ms[w] = fe, m
	}

	rounds := sc.Ops / writers
	beforeRetries := make([]int64, writers)
	starts := make([]time.Duration, writers)
	for w := 0; w < writers; w++ {
		beforeRetries[w] = fes[w].Stats().Snapshot().CASRetries
		starts[w] = fes[w].Clock().Now()
	}
	put := func(w, r int) error {
		k := uint64(w)<<32 | uint64(r)
		return ms[w].Put(k, workload.Value(k, 64))
	}
	for r := 0; r < rounds; r++ {
		if r%4 == 3 {
			// Race a rotating pair: both writers path-copy from the same
			// root snapshot; the CAS loser re-executes.
			a := (r / 4) % writers
			b := (a + 1) % writers
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i, w := range []int{a, b} {
				i, w := i, w
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = put(w, r)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return Row{}, err
				}
			}
			for w := 0; w < writers; w++ {
				if w == a || w == b {
					continue
				}
				if err := put(w, r); err != nil {
					return Row{}, err
				}
			}
		} else {
			for w := 0; w < writers; w++ {
				if err := put(w, r); err != nil {
					return Row{}, err
				}
			}
		}
	}
	var kops float64
	var retries int64
	for w := 0; w < writers; w++ {
		kops += kopsOf(rounds, fes[w].Clock().Now()-starts[w])
		retries += fes[w].Stats().Snapshot().CASRetries - beforeRetries[w]
	}
	puts := rounds * writers
	return Row{
		Experiment: "multiwriter", Series: "mvcas",
		Label: fmt.Sprintf("w=%d", writers), X: float64(writers),
		KOPS: kops,
		Extra: map[string]float64{
			"writers": float64(writers), "puts": float64(puts),
			"cas_retries": float64(retries),
			"abort_rate":  float64(retries) / float64(puts),
		},
	}, nil
}

// measureMirrorCell measures stale-bounded mirror-served reads. A
// fault-plane lag queue holds replication traffic (without it the
// primary forwards raw ranges synchronously and the mirror is always
// byte-current), so the mirror's epoch lag climbs a deterministic ramp
// as the primary writes in batches; the driver syncs only when the
// budget would be exceeded and reads each batch from the mirror,
// recording the worst staleness actually served.
func measureMirrorCell(sc Scale) (Row, error) {
	cfg := cluster.DefaultConfig()
	cfg.MirrorsPerBack = 1
	cfg.DeviceBytes = 128 << 20
	cfg.Tracer = liveTracer
	cl, err := cluster.New(cfg)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	plane := fault.NewPlane(1)
	plane.SetMirrorLag(1 << 20)
	cl.AttachFaultPlane(plane)
	_, conns, err := cl.NewFrontend(1, core.ModeR().WithPipeline(8))
	if err != nil {
		return Row{}, err
	}
	kv, err := ds.CreateHashTable(conns[0], "mwkv", ds.Options{Create: mwCreateOpts(), Buckets: 1 << 10})
	if err != nil {
		return Row{}, err
	}
	for k := 1; k <= sc.Seed; k++ {
		if err := kv.Put(uint64(k), workload.Value(uint64(k), 64)); err != nil {
			return Row{}, err
		}
	}
	if err := kv.Flush(); err != nil {
		return Row{}, err
	}
	if err := kv.Handle().Drain(); err != nil {
		return Row{}, err
	}
	cl.SyncMirrors(0)
	mfe, mconn, err := cl.NewMirrorFrontend(9, 0, 0, core.ModeR())
	if err != nil {
		return Row{}, err
	}
	mkv, err := ds.OpenHashTable(mconn, "mwkv", false, ds.Options{Create: mwCreateOpts(), Buckets: 1 << 10})
	if err != nil {
		return Row{}, err
	}

	const budget = 64
	const batches = 8
	const writesPerBatch = 24 // 24 applied txs = 24 epochs of lag per unsynced batch
	readsPerBatch := sc.Ops / batches
	slot := kv.Handle().Slot()
	gen := workload.New(workload.Config{Seed: 3, Keys: uint64(sc.Seed), WritePct: 0, ValueLen: 64})
	var maxServed, syncs float64
	total := 0
	start := mfe.Clock().Now()
	for b := 0; b < batches; b++ {
		for i := 0; i < writesPerBatch; i++ {
			k := uint64(sc.Seed + b*writesPerBatch + i + 1)
			if err := kv.Put(k, workload.Value(k, 64)); err != nil {
				return Row{}, err
			}
		}
		if err := kv.Flush(); err != nil {
			return Row{}, err
		}
		if err := kv.Handle().Drain(); err != nil {
			return Row{}, err
		}
		lag, err := cluster.MirrorStaleness(conns[0], mconn, slot)
		if err != nil {
			return Row{}, err
		}
		if lag > budget {
			cl.SyncMirrors(0)
			syncs++
			if lag, err = cluster.MirrorStaleness(conns[0], mconn, slot); err != nil {
				return Row{}, err
			}
		}
		if float64(lag) > maxServed {
			maxServed = float64(lag)
		}
		for i := 0; i < readsPerBatch; i++ {
			if _, _, err := mkv.Get(1 + gen.Next().Key%uint64(sc.Seed)); err != nil {
				return Row{}, err
			}
			total++
		}
	}
	kops := kopsOf(total, mfe.Clock().Now()-start)
	return Row{
		Experiment: "multiwriter", Series: "mirror",
		Label: "stale-bounded", X: 1,
		KOPS: kops,
		Extra: map[string]float64{
			"budget": budget, "max_served_lag": maxServed,
			"syncs": syncs, "reads": float64(total),
		},
	}, nil
}
