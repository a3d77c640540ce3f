package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/symmetric"
	"asymnvm/internal/workload"
)

// Table3 reproduces the headline comparison: ten benchmarks across the
// six configurations, 100% write workload, one front-end on one back-end.
func Table3(sc Scale) ([]Row, error) {
	var rows []Row
	for _, name := range table3Benchmarks {
		for _, cfg := range table3Configs() {
			if !supportsConfig(name, cfg.series) {
				continue
			}
			row, err := measureCell(name, cfg, sc, 100)
			if err != nil {
				return nil, fmt.Errorf("table3 %s/%s: %w", name, cfg.series, err)
			}
			row.Experiment, row.Series, row.Label = "table3", cfg.series, name
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table2 reproduces the allocator comparison of §5.2: alloc/free
// throughput in MOPS for Glibc (volatile, modeled as pure CPU cost),
// Pmem (local persistent allocator), the raw RPC allocator, and the
// two-tier allocator with 128-byte and 1024-byte slabs.
func Table2(ops int) ([]Row, error) {
	var rows []Row
	add := func(series string, allocMOPS, freeMOPS float64) {
		rows = append(rows, Row{
			Experiment: "table2", Series: series, Label: "alloc", KOPS: allocMOPS * 1000,
			Extra: map[string]float64{"alloc_MOPS": allocMOPS, "free_MOPS": freeMOPS},
		})
	}

	// Glibc: a volatile allocator costs tens of nanoseconds of CPU and
	// no persistence. Modeled as fixed CPU costs (measured DRAM-speed
	// malloc/free on the paper's testbed class).
	const glibcAlloc, glibcFree = 48 * time.Nanosecond, 18 * time.Nanosecond
	add("Glibc", 1e3/float64(glibcAlloc.Nanoseconds()), 1e3/float64(glibcFree.Nanoseconds()))

	// Pmem: the persistent allocator running locally — the back-end
	// bitmap allocator through a zero-RTT ring (bitmap persist + barrier
	// on every call).
	{
		node, err := symmetric.New(64 << 20)
		if err != nil {
			return nil, err
		}
		conn, err := node.Client(1, 1)
		if err != nil {
			node.Stop()
			return nil, err
		}
		aMOPS, fMOPS, err := measureRawAlloc(conn, ops)
		node.Stop()
		if err != nil {
			return nil, err
		}
		add("Pmem", aMOPS, fMOPS)
	}

	// RPC allocator: every allocation is a remote ring RPC.
	{
		cl, err := newAsymCluster(64 << 20)
		if err != nil {
			return nil, err
		}
		_, conns, err := cl.NewFrontend(1, core.ModeR())
		if err != nil {
			cl.Stop()
			return nil, err
		}
		aMOPS, fMOPS, err := measureRawAlloc(conns[0], ops)
		cl.Stop()
		if err != nil {
			return nil, err
		}
		add("RPC allocator", aMOPS, fMOPS)
	}

	// Two-tier with 128-byte and 1024-byte slabs: sub-slab allocations
	// are front-end-local; the RPC cost amortizes over blocks per slab.
	for _, slab := range []int{128, 1024} {
		cfg := backend.Config{BlockSize: slab, RPCSlots: 16, NameEntries: 64}
		aMOPS, fMOPS, err := measureTwoTier(cfg, ops)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("Two-tier (slab %dB)", slab), aMOPS, fMOPS)
	}
	return rows, nil
}

// measureRawAlloc times ring-RPC malloc/free pairs.
func measureRawAlloc(conn *core.Conn, ops int) (float64, float64, error) {
	fe := conn.Frontend()
	addrs := make([]uint64, 0, ops)
	start := fe.Clock().Now()
	for i := 0; i < ops; i++ {
		a, err := conn.Malloc(uint64(32 + i%97))
		if err != nil {
			return 0, 0, err
		}
		addrs = append(addrs, a)
	}
	allocT := fe.Clock().Now() - start
	start = fe.Clock().Now()
	for i, a := range addrs {
		if err := conn.Free(a, uint64(32+i%97)); err != nil {
			return 0, 0, err
		}
	}
	freeT := fe.Clock().Now() - start
	return mops(ops, allocT), mops(ops, freeT), nil
}

// measureTwoTier times front-end slab allocations over a back-end with
// the given block (slab) size.
func measureTwoTier(cfg backend.Config, ops int) (float64, float64, error) {
	prof := clock.DefaultProfile()
	dev := nvm.NewDevice(64 << 20)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: &prof, Config: &cfg})
	if err != nil {
		return 0, 0, err
	}
	bk.Start()
	defer bk.Stop()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: &prof})
	conn, err := fe.Connect(bk)
	if err != nil {
		return 0, 0, err
	}
	size := 32
	if cfg.BlockSize >= 1024 {
		size = 96 // exercises several size classes under a 1 KiB slab
	}
	addrs := make([]uint64, 0, ops)
	start := fe.Clock().Now()
	for i := 0; i < ops; i++ {
		a, err := conn.Alloc(size)
		if err != nil {
			return 0, 0, err
		}
		addrs = append(addrs, a)
	}
	allocT := fe.Clock().Now() - start
	start = fe.Clock().Now()
	for _, a := range addrs {
		if err := conn.Release(a, size); err != nil {
			return 0, 0, err
		}
	}
	freeT := fe.Clock().Now() - start
	return mops(ops, allocT), mops(ops, freeT), nil
}

func mops(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}

// Fig6BatchSize sweeps the batch size for the lock-free panel (MV-BST,
// MV-BPT, SkipList) and the lock-based panel (BST, BPT, TATP), 100%
// write, reproducing Figure 6.
func Fig6BatchSize(sc Scale, batches []int) ([]Row, error) {
	if len(batches) == 0 {
		batches = []int{1, 4, 16, 64, 256, 1024, 4096}
	}
	var rows []Row
	for _, name := range []string{"MV-BST", "MV-BPT", "SkipList", "BST", "BPT", "TX(TATP)"} {
		for _, b := range batches {
			cfg := configCell{
				series:   fmt.Sprintf("%s", name),
				mode:     core.ModeRCB(0, b),
				cachePct: 10,
			}
			row, err := measureCell(name, cfg, sc, 100)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s b=%d: %w", name, b, err)
			}
			row.Experiment, row.Series, row.X = "fig6", name, float64(b)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig7CacheSize sweeps the cache size (1/5/10/20% of the structure's NVM
// footprint), reproducing Figure 7.
func Fig7CacheSize(sc Scale) ([]Row, error) {
	var rows []Row
	for _, name := range []string{"BPT", "BST", "SkipList", "TX(TATP)", "MV-BPT", "MV-BST", "HashTable", "TX(SmallBank)"} {
		for _, pct := range []float64{1, 5, 10, 20} {
			cfg := configCell{mode: core.ModeRC(0), cachePct: pct}
			row, err := measureCell(name, cfg, sc, 100)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s %.0f%%: %w", name, pct, err)
			}
			row.Experiment, row.Series, row.X = "fig7", name, pct
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8Readers runs one writer (100% insert) plus 1..maxReaders reader
// front-ends under SWMR, for a lock-based structure set and the
// multi-version set, reproducing Figure 8.
func Fig8Readers(sc Scale, maxReaders int) ([]Row, error) {
	if maxReaders <= 0 {
		maxReaders = 6
	}
	var rows []Row
	for _, name := range []string{"BST", "BPT", "SkipList", "MV-BST", "MV-BPT"} {
		for n := 1; n <= maxReaders; n++ {
			w, r, retries, err := runReadersWriter(name, sc, n)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s n=%d: %w", name, n, err)
			}
			rows = append(rows,
				Row{Experiment: "fig8", Series: name + "(W)", X: float64(n), KOPS: w},
				Row{Experiment: "fig8", Series: name + "(R)", X: float64(n), KOPS: r,
					Extra: map[string]float64{"retryRatio": retries}},
			)
		}
	}
	return rows, nil
}

// runReadersWriter measures aggregate reader KOPS and writer KOPS with
// nReaders concurrent reader front-ends.
func runReadersWriter(name string, sc Scale, nReaders int) (float64, float64, float64, error) {
	cl, err := newAsymCluster(512 << 20)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Stop()
	wMode := core.ModeRCB(cacheBytesFor(name, sc.Seed, 10), 64)
	_, wconns, err := cl.NewFrontend(1, wMode)
	if err != nil {
		return 0, 0, 0, err
	}
	wh, err := buildKV(wconns[0], name, sc, ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14})
	if err != nil {
		return 0, 0, 0, err
	}
	uniq := fmt.Sprintf("%s-%d", sanitize(name), 1)

	type readerRes struct {
		kops    float64
		retries float64
		err     error
	}
	results := make([]readerRes, nReaders)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nReaders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rMode := core.ModeRC(cacheBytesFor(name, sc.Seed, 10))
			fe, conns, err := cl.NewFrontend(uint16(2+i), rMode)
			if err != nil {
				results[i].err = err
				return
			}
			kv, err := openKVByName(conns[0], name, uniq)
			if err != nil {
				results[i].err = err
				return
			}
			gen := workload.New(workload.Config{Seed: int64(i), Keys: uint64(sc.Keys), WritePct: 0, ValueLen: 64})
			start := fe.Clock().Now()
			before := fe.Stats().Snapshot()
			n := 0
			for {
				select {
				case <-stop:
					d := fe.Clock().Now() - start
					delta := fe.Stats().Snapshot().Sub(before)
					results[i].kops = kopsOf(n, d)
					tot := float64(delta.ReadRetry) + float64(n)
					if tot > 0 {
						results[i].retries = float64(delta.ReadRetry) / tot
					}
					return
				default:
				}
				if _, _, err := kv.Get(gen.Next().Key); err != nil {
					results[i].err = err
					return
				}
				n++
				runtime.Gosched() // fair interleaving on a 1-core host
			}
		}()
	}
	// Writer drives sc.Ops inserts, then stops the readers.
	wkops, err := wh.run(sc.Ops, 100)
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, 0, 0, err
	}
	var agg, retr float64
	for _, r := range results {
		if r.err != nil {
			return 0, 0, 0, r.err
		}
		agg += r.kops
		retr += r.retries
	}
	return wkops, agg, retr / float64(nReaders), nil
}

func openKVByName(conn *core.Conn, name, uniq string) (ds.KV, error) {
	opts := ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14}
	switch name {
	case "HashTable":
		return ds.OpenHashTable(conn, uniq, false, opts)
	case "SkipList":
		return ds.OpenSkipList(conn, uniq, false, opts)
	case "BST":
		return ds.OpenBST(conn, uniq, false, opts)
	case "BPT":
		return ds.OpenBPTree(conn, uniq, false, opts)
	case "MV-BST":
		return ds.OpenMVBST(conn, uniq, false, opts)
	case "MV-BPT":
		return ds.OpenMVBPTree(conn, uniq, false, opts)
	}
	return nil, fmt.Errorf("bench: unknown structure %q", name)
}

// Fig9MultiDS runs 1..max front-ends, each with its own structure
// instance on one shared back-end, reproducing Figure 9's aggregate
// scaling.
func Fig9MultiDS(sc Scale, max int) ([]Row, error) {
	if max <= 0 {
		max = 7
	}
	var rows []Row
	for _, name := range []string{"SkipList", "BST", "BPT", "MV-BST", "MV-BPT"} {
		for n := 1; n <= max; n++ {
			cl, err := newAsymCluster(1 << 30)
			if err != nil {
				return nil, err
			}
			var wg sync.WaitGroup
			kops := make([]float64, n)
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					mode := core.ModeRCB(cacheBytesFor(name, sc.Seed, 10), 64)
					_, conns, err := cl.NewFrontend(uint16(1+i), mode)
					if err != nil {
						errs[i] = err
						return
					}
					h, err := buildKV(conns[0], name, sc, ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14})
					if err != nil {
						errs[i] = err
						return
					}
					kops[i], errs[i] = h.run(sc.Ops, 100)
				}()
			}
			wg.Wait()
			cl.Stop()
			var agg float64
			for i := range kops {
				if errs[i] != nil {
					return nil, fmt.Errorf("fig9 %s n=%d: %w", name, n, errs[i])
				}
				agg += kops[i]
			}
			rows = append(rows, Row{Experiment: "fig9", Series: name, X: float64(n), KOPS: agg})
		}
	}
	return rows, nil
}

// Fig10Partitions partitions one structure across 1..max back-ends and
// drives it from one writer, reproducing Figure 10 (partitioning should
// not cost throughput).
func Fig10Partitions(sc Scale, max int) ([]Row, error) {
	if max <= 0 {
		max = 7
	}
	kinds := map[string]ds.KVKind{
		"SkipList": ds.KindSkipList, "BST": ds.KindBST, "BPT": ds.KindBPTree,
		"MV-BST": ds.KindMVBST, "MV-BPT": ds.KindMVBPTree,
	}
	var rows []Row
	for _, name := range []string{"SkipList", "BST", "BPT", "MV-BST", "MV-BPT"} {
		for n := 1; n <= max; n++ {
			cl, err := newMultiCluster(n)
			if err != nil {
				return nil, err
			}
			mode := core.ModeRCB(cacheBytesFor(name, sc.Seed, 10), 64)
			fe, conns, err := cl.NewFrontend(1, mode)
			if err != nil {
				cl.Stop()
				return nil, err
			}
			p, err := ds.CreatePartitioned(conns, kinds[name], "part-"+sanitize(name), n, ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14})
			if err != nil {
				cl.Stop()
				return nil, err
			}
			for i := 0; i < sc.Seed; i++ {
				// Scatter seed keys: sorted insertion would degenerate
				// the unbalanced trees (see seedKV).
				k := uint64(i+1) * 0x9E3779B97F4A7C15
				if err := p.Put(k, workload.Value(k, 64)); err != nil {
					cl.Stop()
					return nil, err
				}
			}
			if err := p.Flush(); err != nil {
				cl.Stop()
				return nil, err
			}
			gen := workload.New(workload.Config{Seed: 5, Keys: uint64(sc.Keys), WritePct: 100, ValueLen: 64})
			start := fe.Clock().Now()
			for i := 0; i < sc.Ops; i++ {
				if err := p.Put(gen.Next().Key, workload.Value(uint64(i), 64)); err != nil {
					cl.Stop()
					return nil, err
				}
			}
			if err := p.Flush(); err != nil {
				cl.Stop()
				return nil, err
			}
			kops := kopsOf(sc.Ops, fe.Clock().Now()-start)
			cl.Stop()
			rows = append(rows, Row{Experiment: "fig10", Series: name, X: float64(n), KOPS: kops})
		}
	}
	return rows, nil
}

// Fig11CPU reports front-end and back-end CPU utilization over a 10% put
// / 90% get BST run, reproducing Figure 11's claim that the back-end CPU
// stays nearly idle.
func Fig11CPU(sc Scale) ([]Row, error) {
	cl, err := newAsymCluster(512 << 20)
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	mode := core.ModeRCB(cacheBytesFor("BST", sc.Seed, 10), 64)
	fe, conns, err := cl.NewFrontend(1, mode)
	if err != nil {
		return nil, err
	}
	h, err := buildKV(conns[0], "BST", sc, ds.Options{Create: benchCreateOpts()})
	if err != nil {
		return nil, err
	}
	bk := cl.Backends[0]
	beforeB := bk.Stats().Snapshot()
	start := fe.Clock().Now()
	if _, err := h.run(sc.Ops, 10); err != nil {
		return nil, err
	}
	elapsed := fe.Clock().Now() - start
	busyB := bk.Stats().Snapshot().Sub(beforeB).BusyNS
	feUtil := 100.0 // closed-loop driver: the front-end core never idles
	beUtil := float64(busyB) / float64(elapsed) * 100
	if beUtil > 100 {
		beUtil = 100
	}
	return []Row{
		{Experiment: "fig11", Series: "Front-end", KOPS: 0, Extra: map[string]float64{"util_pct": feUtil}},
		{Experiment: "fig11", Series: "Back-end", KOPS: 0, Extra: map[string]float64{"util_pct": beUtil}},
	}, nil
}

// Fig12Zipf measures skew tolerance: uniform vs Zipf .5/.9/.99 over the
// five index structures, reproducing Figure 12.
func Fig12Zipf(sc Scale) ([]Row, error) {
	var rows []Row
	for _, name := range []string{"BPT", "BST", "SkipList", "MV-BPT", "MV-BST"} {
		for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
			cl, err := newAsymCluster(512 << 20)
			if err != nil {
				return nil, err
			}
			mode := core.ModeRCB(cacheBytesFor(name, sc.Seed, 10), 64)
			fe, conns, err := cl.NewFrontend(1, mode)
			if err != nil {
				cl.Stop()
				return nil, err
			}
			h, err := buildKV(conns[0], name, sc, ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14})
			if err != nil {
				cl.Stop()
				return nil, err
			}
			gen := workload.New(workload.Config{Seed: 7, Keys: uint64(sc.Keys), WritePct: 100, ValueLen: 64, Theta: theta, Scramble: theta > 0})
			start := fe.Clock().Now()
			for i := 0; i < sc.Ops; i++ {
				op := gen.Next()
				if err := h.kv.Put(op.Key, workload.Value(op.Key, 64)); err != nil {
					cl.Stop()
					return nil, err
				}
			}
			if err := h.kv.Flush(); err != nil {
				cl.Stop()
				return nil, err
			}
			kops := kopsOf(sc.Ops, fe.Clock().Now()-start)
			cl.Stop()
			label := "Uniform"
			if theta > 0 {
				label = fmt.Sprintf("Skewed(%.2g)", theta)
			}
			rows = append(rows, Row{Experiment: "fig12", Series: name, Label: label, X: theta, KOPS: kops})
		}
	}
	return rows, nil
}

// Fig13Mixes measures every structure under the read/write mixes of
// Figure 13 (100%put, 50/50, 75put/25get, 10put/90get, 100%get) for the
// Naive, R and RC(B) configurations, with the industry-style power-law
// workload.
func Fig13Mixes(sc Scale) ([]Row, error) {
	mixes := []int{100, 50, 75, 10, 0}
	names := []string{"BST", "MV-BST", "BPT", "MV-BPT", "SkipList", "Queue", "Stack", "HashTable"}
	cfgs := []configCell{
		{series: "Naive", mode: core.ModeNaive()},
		{series: "R", mode: core.ModeR()},
		{series: "RC", mode: core.ModeRC(0), cachePct: 10},
	}
	var rows []Row
	for _, name := range names {
		for _, cfg := range cfgs {
			series := cfg.series
			if (name == "Queue" || name == "Stack") && series == "RC" {
				// Queue/stack combine batching with caching (Table 3's
				// footnote); their third line is RCB.
				cfg.mode = core.ModeRCB(0, 1024)
				series = "RCB"
			}
			for _, writePct := range mixes {
				kops, err := measureCellMix(name, cfg, sc, writePct)
				if err != nil {
					return nil, fmt.Errorf("fig13 %s/%s w=%d: %w", name, cfg.series, writePct, err)
				}
				rows = append(rows, Row{
					Experiment: "fig13", Series: name + "/" + series,
					Label: fmt.Sprintf("%d%%put", writePct), X: float64(writePct), KOPS: kops,
				})
			}
		}
	}
	return rows, nil
}

// measureCellMix is measureCell with a configurable write percentage and
// the power-law key distribution of the industry trace.
func measureCellMix(name string, cfg configCell, sc Scale, writePct int) (float64, error) {
	cl, err := newAsymCluster(512 << 20)
	if err != nil {
		return 0, err
	}
	defer cl.Stop()
	mode := cfg.mode
	if cfg.cachePct > 0 {
		mode.CacheBytes = cacheBytesFor(name, sc.Seed, cfg.cachePct)
	}
	_, conns, err := cl.NewFrontend(1, mode)
	if err != nil {
		return 0, err
	}
	h, err := buildKV(conns[0], name, sc, ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14})
	if err != nil {
		return 0, err
	}
	h.gen = workload.New(workload.Config{Seed: 11, Keys: uint64(sc.Keys), WritePct: writePct, ValueLen: 64, Theta: 0.9, Scramble: true})
	start := h.fe.Clock().Now()
	if err := h.runOps(sc.Ops); err != nil {
		return 0, err
	}
	if err := h.flush(); err != nil {
		return 0, err
	}
	return kopsOf(sc.Ops, h.fe.Clock().Now()-start), nil
}

// LockBench reproduces the §6.3 ping-point test: six readers and one
// writer on the same unit, at 10% and 50% write ratios, reporting
// per-reader and writer throughput and the reader fail (retry) ratio.
func LockBench(ops int) ([]Row, error) {
	var rows []Row
	for _, writePct := range []int{10, 50} {
		w, rAvg, fail, err := lockPingPoint(ops, writePct, 6)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Row{Experiment: "lockbench", Series: "writer", X: float64(writePct), KOPS: w},
			Row{Experiment: "lockbench", Series: "reader(avg)", X: float64(writePct), KOPS: rAvg,
				Extra: map[string]float64{"failRatio": fail}},
		)
	}
	return rows, nil
}

func lockPingPoint(ops, writePct, nReaders int) (float64, float64, float64, error) {
	cl, err := newAsymCluster(64 << 20)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Stop()
	_, wconns, err := cl.NewFrontend(1, core.ModeR())
	if err != nil {
		return 0, 0, 0, err
	}
	wconn := wconns[0]
	wh, err := wconn.Create("pingpoint", backend.TypeBST, core.CreateOptions{MemLogSize: 4 << 20, OpLogSize: 1 << 20})
	if err != nil {
		return 0, 0, 0, err
	}
	unit, err := wconn.Calloc(64)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := wh.WriterLock(); err != nil {
		return 0, 0, 0, err
	}
	// Initial value.
	if _, err := wh.OpLog(1, nil); err != nil {
		return 0, 0, 0, err
	}
	if err := wh.Write(unit, make([]byte, 64)); err != nil {
		return 0, 0, 0, err
	}
	if err := wh.EndOp(); err != nil {
		return 0, 0, 0, err
	}
	if err := wh.Drain(); err != nil {
		return 0, 0, 0, err
	}

	type res struct {
		kops float64
		fail float64
		err  error
	}
	results := make([]res, nReaders)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < nReaders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe := core.NewFrontend(core.FrontendOptions{ID: uint16(2 + i), Mode: core.ModeR()})
			conn, err := fe.Connect(cl.Backends[0])
			if err != nil {
				results[i].err = err
				return
			}
			rh, err := conn.Open("pingpoint", false)
			if err != nil {
				results[i].err = err
				return
			}
			start := fe.Clock().Now()
			before := fe.Stats().Snapshot()
			n := 0
			for {
				select {
				case <-stop:
					d := fe.Clock().Now() - start
					delta := fe.Stats().Snapshot().Sub(before)
					results[i].kops = kopsOf(n, d)
					if tot := float64(delta.ReadRetry) + float64(n); tot > 0 {
						results[i].fail = float64(delta.ReadRetry) / tot
					}
					return
				default:
				}
				for {
					if err := rh.ReaderLock(); err != nil {
						results[i].err = err
						return
					}
					if _, err := rh.Read(unit, 64, false); err != nil {
						results[i].err = err
						return
					}
					// A real read section spans a couple of fabric round
					// trips; yielding here lets the replayer interleave,
					// as it would on independent machines.
					runtime.Gosched()
					ok, err := rh.ReaderValidate()
					if err != nil {
						results[i].err = err
						return
					}
					if ok {
						break
					}
				}
				n++
				runtime.Gosched() // fair interleaving on a 1-core host
			}
		}()
	}

	// The writer alternates writes and reads at the requested ratio.
	wfe := wconn.Frontend()
	start := wfe.Clock().Now()
	rng := uint64(17)
	buf := make([]byte, 64)
	for i := 0; i < ops; i++ {
		runtime.Gosched() // interleave with the readers on one core
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if int(rng%100) < writePct {
			buf[0] = byte(i)
			if _, err := wh.OpLog(1, nil); err != nil {
				return 0, 0, 0, err
			}
			if err := wh.Write(unit, buf); err != nil {
				return 0, 0, 0, err
			}
			if err := wh.EndOp(); err != nil {
				return 0, 0, 0, err
			}
		} else {
			if _, err := wh.Read(unit, 64, false); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	if err := wh.Flush(); err != nil {
		return 0, 0, 0, err
	}
	wkops := kopsOf(ops, wfe.Clock().Now()-start)
	close(stop)
	wg.Wait()
	var rSum, fSum float64
	for _, r := range results {
		if r.err != nil {
			return 0, 0, 0, r.err
		}
		rSum += r.kops
		fSum += r.fail
	}
	return wkops, rSum / float64(nReaders), fSum / float64(nReaders), nil
}

// CacheBench reproduces the §4.4 comparison of replacement policies:
// miss ratios of RR, LRU and the hybrid under a Zipf workload whose
// footprint is 10× the cache.
func CacheBench(accesses int) []Row {
	var rows []Row
	for _, pol := range []struct {
		name string
		p    core.Policy
	}{{"Hybrid", core.PolicyHybrid}, {"LRU", core.PolicyLRU}, {"RR", core.PolicyRR}} {
		st := &stats.Stats{}
		cache := core.NewCache(256<<10, pol.p, st) // 256 KiB cache
		gen := workload.New(workload.Config{Seed: 21, Keys: 160000, WritePct: 0, Theta: 0.99, Scramble: true})
		entry := make([]byte, 64) // 160k × 64 B ≈ 10 MiB footprint, 40× the cache
		hostStart := time.Now()
		for i := 0; i < accesses; i++ {
			k := gen.Next().Key
			if _, ok := cache.Get(k, core.EpochAlways, true); !ok {
				cache.Put(k, entry, 0, core.EpochAlways)
			}
		}
		hostNS := float64(time.Since(hostStart).Nanoseconds()) / float64(accesses)
		snap := st.Snapshot()
		miss := float64(snap.CacheMiss) / float64(snap.CacheMiss+snap.CacheHit) * 100
		rows = append(rows, Row{
			Experiment: "cachebench", Series: pol.name,
			Extra: map[string]float64{"missPct": miss, "hostNsPerAccess": hostNS},
		})
	}
	return rows
}

// CostModel reproduces the §9.2 device-count comparison: with m machines
// whose NVM utilization follows the measured data-center distribution,
// the symmetric design needs one device per machine while the asymmetric
// design needs only the sum of actual usage.
func CostModel(machines int, utilization []float64) []Row {
	if machines <= 0 {
		machines = 100
	}
	if len(utilization) == 0 {
		// Google-cluster-style utilization: mean ≈ 40%.
		for i := 0; i < machines; i++ {
			utilization = append(utilization, 0.15+0.5*float64(i%7)/7)
		}
	}
	symmetric := float64(machines)
	var asym float64
	for _, u := range utilization[:machines] {
		asym += u
	}
	asymDevices := float64(int(asym) + 1)
	return []Row{
		{Experiment: "cost", Series: "Symmetric", Extra: map[string]float64{"devices": symmetric}},
		{Experiment: "cost", Series: "AsymNVM", Extra: map[string]float64{"devices": asymDevices}},
	}
}

// newMultiCluster builds an n-back-end cluster for the partitioning
// figure.
func newMultiCluster(n int) (*cluster.Cluster, error) {
	c := cluster.DefaultConfig()
	c.Backends = n
	c.DeviceBytes = 512 << 20
	return cluster.New(c)
}
