package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
	"asymnvm/internal/workload"
)

// recover-replay parameters: the "full" cell of bench.RecoverySweep. The
// lazy plane never checkpoints (interval beyond any run, logs far from
// their ¾-full pressure trigger), so a restart replays the whole history.
const (
	recoverPuts = 12_800 // W; fixed, because aging cost is super-linear in it
	// The key domain is wider than the history, so how many puts insert
	// and how many update, and with it the replay work, follows the seed.
	recoverDomain    = 16_384
	recoverImages    = 3
	recoverRestarts  = 4 // per image
	recoverSampled   = 256
	recoverDevice    = 128 << 20
	recoverNeverCkpt = 1 << 62
)

func recoverOptions() ds.Options {
	return ds.Options{Buckets: recoverDomain, Create: core.CreateOptions{MemLogSize: 64 << 20, OpLogSize: 16 << 20}}
}

// aged is a device whose back-end was halted after W acknowledged puts,
// and the oracle that knows them.
type aged struct {
	dev   *nvm.Device
	orc   *oracle
	fe    stats.Snapshot // the aging front-end's counters
	wallS float64
}

// age builds a fresh back-end and hash table, applies puts history puts
// drawn from seed over the key domain, drains and power-fails the node.
func age(seed int64, puts int, prof *clock.Profile, compact *backend.CompactConfig, tr *trace.Tracer) (*aged, error) {
	t0 := time.Now()
	dev := nvm.NewDevice(recoverDevice)
	bk, err := backend.New(dev, backend.Options{ID: 0, Profile: prof, Compact: compact})
	if err != nil {
		return nil, err
	}
	bk.Start()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: prof, Tracer: tr})
	conn, err := fe.Connect(bk)
	if err != nil {
		bk.Stop()
		return nil, err
	}
	ht, err := ds.CreateHashTable(conn, kvName, recoverOptions())
	if err != nil {
		bk.Stop()
		return nil, err
	}
	a := &aged{dev: dev, orc: newOracle(recoverDomain)}
	gen := workload.New(workload.Config{Seed: seed, Keys: recoverDomain, WritePct: 100, ValueLen: valueLen})
	val := make([]byte, valueLen)
	for i := 0; i < puts; i++ {
		key := gen.Next().Key
		a.orc.next(key, val)
		if err := ht.Put(key, val); err != nil {
			bk.Stop()
			return nil, fmt.Errorf("aging put %d: %w", i, err)
		}
	}
	if err := ht.Drain(); err != nil {
		bk.Stop()
		return nil, err
	}
	a.fe = fe.Stats().Snapshot()
	// Power failure: no final drain, no checkpoint; what the lazy replayer
	// applied but never persisted is still in the device's volatile window.
	bk.Halt()
	a.wallS = time.Since(t0).Seconds()
	return a, nil
}

// runRecover ages one device per crash image, each with its own seeded
// history, power-fails it, and restarts each image several times; only backend.New
// is inside a window. An op is one history put replayed by a restart. The
// traced pass keeps the history length and restarts a quarter of the images.
// Every aging run is a timed set-up, so a.setups is not consulted.
func runRecover(a runArgs) (*measurement, error) {
	frac := math.Min(a.scale, 1)
	puts := max(64, int(recoverPuts*frac))
	images := int(math.Ceil(recoverImages * frac))
	if a.tr != nil {
		images = (images + 3) / 4
	}
	restarts := int(math.Ceil(recoverRestarts * a.scale))
	prof := clock.DefaultProfile()
	compact := &backend.CompactConfig{Interval: recoverNeverCkpt}

	m := &measurement{
		lat: make([]int64, 0, images*restarts),
		seg: make([]time.Duration, 0, images*restarts),
	}
	before := readLedgers(a.tr)
	st := &stats.Stats{} // shared by every restart, so its counters add up
	for img := 0; img < images; img++ {
		imgSeed := a.seed*recoverImages + int64(img)
		dev, err := age(imgSeed, puts, &prof, compact, a.tr)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, dev.wallS)
		m.ageUSPerPut = dev.wallS * 1e6 / float64(puts)
		m.fe = dev.fe
		m.userBytes = int64(puts) * (8 + valueLen)
		// The whole volatile window is lost, untorn. A seeded tear would keep
		// a random prefix of the lazily persisted cursors, and the restart
		// would replay a random share of the history instead of all of it.
		dev.dev.Crash(nil)
		image := dev.dev.Snapshot()
		// Collect the aging run's garbage and hand its pages back now: left
		// to the background scavenger, when they go decides which of two
		// resident-set levels the restarts are sampled at.
		debug.FreeOSMemory()
		for r := 0; r < restarts; r++ {
			if err := dev.dev.Restore(image); err != nil {
				return nil, err
			}
			replayed := st.RecoveryReplayOps.Load()
			w, err := beginWindow(m)
			if err != nil {
				return nil, err
			}
			bk, err := backend.New(dev.dev, backend.Options{ID: 0, Profile: &prof, Stats: st, Compact: compact, Tracer: a.tr})
			w.boundary()
			if werr := w.end(); err == nil {
				err = werr
			}
			if err != nil {
				return nil, fmt.Errorf("restart %d of image %d: %w", r, img, err)
			}
			// Recovery runs inside New on a fresh virtual clock, so Now()
			// is the recovery cost itself.
			ns := int64(bk.Clock().Now())
			m.lat = append(m.lat, ns)
			m.virtNS += ns
			m.ops += int64(puts)
			m.replayOps = st.RecoveryReplayOps.Load() - replayed
			m.attempted++
			if m.replayOps != int64(puts)+1 {
				// Anything else and the cell is no longer the deterministic
				// full-history baseline.
				m.failed++
			}
			if err := verifyRecovered(bk, dev.orc, &prof, m); err != nil {
				return nil, err
			}
		}
		image = nil
		debug.FreeOSMemory()
	}
	m.bk, m.bkVirt, m.restartCount = st.Snapshot(), m.virtNS, images*restarts
	if a.tr != nil {
		m.shares = readLedgers(a.tr).since(before)
	}
	return m, nil
}

// verifyRecovered reopens the table on a restarted back-end as its
// recovering writer and reads sampled keys back against the oracle.
func verifyRecovered(bk *backend.Backend, orc *oracle, prof *clock.Profile, m *measurement) error {
	bk.Start()
	defer bk.Stop()
	fe := core.NewFrontend(core.FrontendOptions{ID: 1, Mode: core.ModeR(), Profile: prof})
	conn, err := fe.Connect(bk)
	if err != nil {
		return err
	}
	// The aging front-end went down with the power, holding the writer
	// lock; its successor breaks that lock before taking it.
	raw, err := conn.Open(kvName, true)
	if err != nil {
		return fmt.Errorf("reopen after restart: %w", err)
	}
	if err := raw.BreakLock(1); err != nil {
		return err
	}
	ht, err := ds.OpenHashTable(conn, kvName, true, recoverOptions())
	if err != nil {
		return fmt.Errorf("reopen after restart: %w", err)
	}
	for key := uint64(1); key <= recoverDomain; key += recoverDomain / recoverSampled {
		got, found, err := ht.Get(key)
		m.attempted++
		if err != nil || !orc.check(key, got, found) {
			m.failed++
		}
	}
	return nil
}
