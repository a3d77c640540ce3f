package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
	"asymnvm/internal/workload"
)

// valueLen is the value size of every workload: the 64 B of the paper's
// microbenchmarks.
const valueLen = 64

// oracle is the shadow state every response is checked against: the
// version of the last acknowledged put of each key. A value's bytes are a
// function of (key, version), so a stale, torn or misrouted value fails.
type oracle struct {
	ver  []uint32 // indexed by key; 0 = never written
	want [valueLen]byte
}

func newOracle(keys uint64) *oracle { return &oracle{ver: make([]uint32, keys+1)} }

func fillValue(dst []byte, key uint64, ver uint32) {
	x := (key*0x9E3779B97F4A7C15 ^ uint64(ver)*0xBF58476D1CE4E5B9) | 1
	for i := 0; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// next bumps key's version and writes the new value into dst.
func (o *oracle) next(key uint64, dst []byte) {
	o.ver[key]++
	fillValue(dst, key, o.ver[key])
}

// check reports whether a read of key returned the last acknowledged put.
func (o *oracle) check(key uint64, got []byte, found bool) bool {
	v := o.ver[key]
	if v == 0 {
		return !found
	}
	fillValue(o.want[:], key, v)
	return found && bytes.Equal(got, o.want[:])
}

// mix deals operation kinds in shuffled blocks that each hold the exact
// mix, so every kind's share of a run is fixed and only its order, and the
// keys, follow the seed. Drawing each op's kind independently made
// serve-mixed's virt_kops swing 1% with the seed through the number of
// PutMulti requests alone.
type mix struct {
	block []uint8
	next  int
}

// newMix builds a dealer whose blocks hold counts[k] operations of kind k.
func newMix(counts ...int) *mix {
	m := &mix{}
	for kind, n := range counts {
		for ; n > 0; n-- {
			m.block = append(m.block, uint8(kind))
		}
	}
	return m
}

func (m *mix) draw(rng *rand.Rand) uint8 {
	if m.next == 0 {
		rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[m.next]
	m.next = (m.next + 1) % len(m.block)
	return kind
}

// setupSeed seeds everything set-up draws: population order and warm-up
// ops. It is not the run's seed, so every run measures the same structure
// and only the measured op stream follows --seed; a skip list populated in
// another order has other towers, and its path lengths moved
// host_allocs_per_op by 5% from seed to seed.
const setupSeed = 1

// store is what a key-value workload drives.
type store interface {
	ds.KV
	Drain() error
}

// kvSpec describes a workload that one front-end drives directly.
type kvSpec struct {
	keys      uint64 // key space
	populate  int    // keys present before the window
	putsIn10  int    // puts in every ten operations; the rest are gets
	opsPerSec int    // measured ops per nominal second on the reference box
	nodeBytes int    // per-item NVM footprint, sizes the cache like internal/bench
	mode      func(footprint int64) core.Mode
	create    func(c *core.Conn, name string, o ds.Options) (store, error)
	open      func(c *core.Conn, name string, o ds.Options) (ds.KV, error)
}

var writeBatched = kvSpec{
	keys: 400_000, populate: 200_000, putsIn10: 10, opsPerSec: 110_000, nodeBytes: 120,
	mode: func(fp int64) core.Mode { return core.ModeRCB(fp/10, 64).WithPipeline(8) },
	create: func(c *core.Conn, name string, o ds.Options) (store, error) {
		return ds.CreateBPTree(c, name, o)
	},
	open: func(c *core.Conn, name string, o ds.Options) (ds.KV, error) {
		return ds.OpenBPTree(c, name, false, o)
	},
}

var readMiss = kvSpec{
	keys: 200_000, populate: 100_000, putsIn10: 1, opsPerSec: 28_000, nodeBytes: 208,
	mode: func(fp int64) core.Mode { return core.ModeRC(fp / 20) },
	create: func(c *core.Conn, name string, o ds.Options) (store, error) {
		return ds.CreateSkipList(c, name, o)
	},
	open: func(c *core.Conn, name string, o ds.Options) (ds.KV, error) {
		return ds.OpenSkipList(c, name, false, o)
	},
}

const kvName = "bench"

func kvOptions() ds.Options {
	return ds.Options{Create: core.CreateOptions{MemLogSize: 32 << 20, OpLogSize: 8 << 20}}
}

// kvInstance is one populated, warmed cluster ready to be measured.
type kvInstance struct {
	spec *kvSpec
	cl   *cluster.Cluster
	fe   *core.Frontend
	kv   store
	orc  *oracle
	keys workload.Uniform
	val  []byte
	lat  []int64
}

func (in *kvInstance) close() { in.cl.Stop() }

// opKinds deals the spec's get/put mix.
func (s *kvSpec) opKinds() *mix { return newMix(10-s.putsIn10, s.putsIn10) }

// putGet executes one operation (kind 1 is a put) on a key drawn from rng
// and reports whether it succeeded and matched the oracle.
func (in *kvInstance) putGet(kind uint8, rng *rand.Rand) (ok bool, userBytes int) {
	key := in.keys.Next(rng)
	if kind == 1 {
		in.orc.next(key, in.val)
		if err := in.kv.Put(key, in.val); err != nil {
			in.orc.ver[key]--
			return false, 0
		}
		return true, 8 + len(in.val)
	}
	got, found, err := in.kv.Get(key)
	return err == nil && in.orc.check(key, got, found), 0
}

// setupKV builds a cluster, populates and warms the structure, and
// preallocates everything the measured loop needs.
func setupKV(spec *kvSpec, ops int, tr *trace.Tracer) (*kvInstance, error) {
	cfg := cluster.DefaultConfig()
	cfg.Tracer = tr
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &kvInstance{
		spec: spec, cl: cl, orc: newOracle(spec.keys), keys: workload.Uniform{Keys: spec.keys},
		val: make([]byte, valueLen), lat: make([]int64, ops),
	}
	fail := func(err error) (*kvInstance, error) { cl.Stop(); return nil, err }
	fe, conns, err := cl.NewFrontend(1, spec.mode(int64(spec.populate)*int64(spec.nodeBytes)))
	if err != nil {
		return fail(err)
	}
	in.fe = fe
	if in.kv, err = spec.create(conns[0], kvName, kvOptions()); err != nil {
		return fail(err)
	}
	// Keys arrive in random order: sorted insertion is no real workload.
	rng := rand.New(rand.NewSource(setupSeed))
	for _, k := range rng.Perm(int(spec.keys))[:spec.populate] {
		key := uint64(k) + 1
		in.orc.next(key, in.val)
		if err := in.kv.Put(key, in.val); err != nil {
			return fail(fmt.Errorf("populate: %w", err))
		}
	}
	if err := in.kv.Drain(); err != nil {
		return fail(err)
	}
	kinds := spec.opKinds()
	for i := 0; i < ops/25; i++ {
		if ok, _ := in.putGet(kinds.draw(rng), rng); !ok {
			return fail(fmt.Errorf("warm-up op %d failed", i))
		}
	}
	if err := in.kv.Flush(); err != nil {
		return fail(err)
	}
	// A forced collection that also returns the freed pages, so the window
	// starts from the live heap and not from wherever the background
	// scavenger has got to.
	debug.FreeOSMemory()
	return in, nil
}

// measure runs the window: len(in.lat) ops drawn from seed, issued from one
// goroutine in a closed loop, then the Flush that makes the last batch
// durable.
func (in *kvInstance) measure(m *measurement, seed int64, tr *trace.Tracer) error {
	bk := in.cl.Backends[0]
	snap := func() (stats.Snapshot, stats.Snapshot, int64, int64) {
		return in.fe.Stats().Snapshot(), bk.Stats().Snapshot(), int64(in.fe.Clock().Now()), int64(bk.Clock().Now())
	}
	clk := in.fe.Clock()
	rng, kinds := rand.New(rand.NewSource(seed)), in.spec.opKinds()
	var flushErr error
	err := runWindow(m, len(in.lat), snap, tr, func(i int) {
		t0 := clk.Now()
		ok, ub := in.putGet(kinds.draw(rng), rng)
		in.lat[i] = int64(clk.Now() - t0)
		m.userBytes += int64(ub)
		if !ok {
			m.failed++
		}
	}, func() { flushErr = in.kv.Flush() })
	if err != nil {
		return err
	}
	if flushErr != nil {
		return fmt.Errorf("flush: %w", flushErr)
	}
	m.lat = in.lat
	m.lagEnd = bk.ReplayLag()
	t0 := clk.Now()
	if err := in.kv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m.drainNS = int64(clk.Now() - t0)
	return in.verify(m)
}

// verify reads every 100th key through a fresh reader front-end after the
// Drain: what a second machine sees must be the last acknowledged puts.
func (in *kvInstance) verify(m *measurement) error {
	_, conns, err := in.cl.NewFrontend(2, core.ModeR())
	if err != nil {
		return err
	}
	rd, err := in.spec.open(conns[0], kvName, kvOptions())
	if err != nil {
		return fmt.Errorf("open reader: %w", err)
	}
	for key := uint64(1); key <= in.spec.keys; key += 100 {
		got, found, err := rd.Get(key)
		m.attempted++
		if err != nil || !in.orc.check(key, got, found) {
			m.failed++
		}
	}
	return nil
}

// runWindow measures ops calls of step, cut into equal segments, then
// tail (work that belongs to the window but to no single op). snap reads
// the workload's counters and virtual clocks; with a tracer the trace
// ledger is read across the same interval.
func runWindow(m *measurement, ops int, snap func() (fe, bk stats.Snapshot, feVirt, bkVirt int64), tr *trace.Tracer, step func(i int), tail func()) error {
	m.seg = make([]time.Duration, 0, segments)
	before := readLedgers(tr)
	fe0, bk0, feV0, bkV0 := snap()
	w, err := beginWindow(m)
	if err != nil {
		return err
	}
	i := 0
	for s := 1; s <= segments; s++ {
		for end := ops * s / segments; i < end; i++ {
			step(i)
		}
		w.boundary()
	}
	tail()
	if err := w.end(); err != nil {
		return err
	}
	fe1, bk1, feV1, bkV1 := snap()
	m.fe, m.bk = fe1.Sub(fe0), bk1.Sub(bk0)
	m.virtNS, m.bkVirt = feV1-feV0, bkV1-bkV0
	m.ops = int64(ops)
	m.attempted += int64(ops)
	if tr != nil {
		m.shares = readLedgers(tr).since(before)
	}
	return nil
}

// runKV is the run function of the two direct key-value workloads.
func runKV(spec *kvSpec) runFunc {
	return func(a runArgs) (*measurement, error) {
		ops := a.ops(spec.opsPerSec)
		m := &measurement{}
		in, err := repeatSetup(m, a.setups, func() (*kvInstance, error) { return setupKV(spec, ops, a.tr) })
		if err != nil {
			return nil, err
		}
		defer in.close()
		return m, in.measure(m, a.seed, a.tr)
	}
}
