package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/serve"
	"asymnvm/internal/stats"
	"asymnvm/internal/trace"
	"asymnvm/internal/workload"
)

// serve-mixed parameters: a hash table that fits the front-end cache twice
// over, driven through the TCP serving tier by one connection.
const (
	serveKeys      = 100_000
	serveNodeBytes = 88
	serveOpsPerSec = 41_000
	serveMulti     = 8
	serveTheta     = 0.99
)

// Request mix, out of every 20 requests (70/20/5/5 %); the order is
// measurement.reqMix's.
var serveMix = [4]struct {
	op   uint8
	in20 int
}{{serve.OpGet, 14}, {serve.OpPut, 4}, {serve.OpGetMulti, 1}, {serve.OpPutMulti, 1}}

func serveKinds() *mix {
	return newMix(serveMix[0].in20, serveMix[1].in20, serveMix[2].in20, serveMix[3].in20)
}

// serveInstance is one populated cluster behind a listening server, with a
// connected client.
type serveInstance struct {
	cl   *cluster.Cluster
	fe   *core.Frontend
	srv  *serve.Server
	cli  *serve.Client
	orc  *oracle
	keys workload.KeyDist
	lat  []int64
	rtt  []int64
	mkey []uint64 // multi-request key scratch
	mval [][]byte // multi-request value scratch
	val  []byte
}

func (in *serveInstance) close() {
	in.cli.Close()
	in.srv.Close()
	in.cl.Stop()
}

func setupServe(ops int, tr *trace.Tracer) (*serveInstance, error) {
	cfg := cluster.DefaultConfig()
	cfg.Tracer = tr
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*serveInstance, error) { cl.Stop(); return nil, err }
	fe, conns, err := cl.NewFrontend(1, core.ModeRC(2*serveKeys*serveNodeBytes))
	if err != nil {
		return fail(err)
	}
	ht, err := ds.CreateHashTable(conns[0], kvName, ds.Options{Buckets: 1 << 16, Create: kvOptions().Create})
	if err != nil {
		return fail(err)
	}
	in := &serveInstance{
		cl: cl, fe: fe, orc: newOracle(serveKeys),
		keys: workload.Scrambled{Inner: workload.NewZipf(serveKeys, serveTheta)},
		lat:  make([]int64, ops), rtt: make([]int64, ops),
		mkey: make([]uint64, serveMulti), mval: make([][]byte, serveMulti),
		val: make([]byte, valueLen),
	}
	for i := range in.mval {
		in.mval[i] = make([]byte, valueLen)
	}
	for key := uint64(1); key <= serveKeys; key++ {
		in.orc.next(key, in.val)
		if err := ht.Put(key, in.val); err != nil {
			return fail(fmt.Errorf("populate: %w", err))
		}
	}
	if err := ht.Drain(); err != nil {
		return fail(err)
	}
	// From Start on the executor goroutine owns the front-end and the table.
	in.srv = serve.New(serve.Backends{FE: fe, KV: ht}, serve.DefaultOptions())
	if err := in.srv.Start("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	if in.cli, err = serve.Dial(in.srv.Addr().String(), 1); err != nil {
		in.srv.Close()
		return fail(err)
	}
	rng, kinds := rand.New(rand.NewSource(setupSeed)), serveKinds()
	for i := 0; i < ops/10; i++ {
		if ok, _ := in.request(kinds.draw(rng), rng); !ok {
			in.close()
			return nil, fmt.Errorf("warm-up request %d failed", i)
		}
	}
	// A forced collection that also returns the freed pages, so the window
	// starts from the live heap and not from wherever the background
	// scavenger has got to.
	debug.FreeOSMemory()
	return in, nil
}

// request issues one request of the given kind (an index into serveMix) on
// keys drawn from rng and checks the response against the oracle.
func (in *serveInstance) request(kind uint8, rng *rand.Rand) (ok bool, userBytes int) {
	req := serve.Request{Op: serveMix[kind].op}
	switch req.Op {
	case serve.OpGet:
		req.Key = in.keys.Next(rng)
	case serve.OpPut:
		req.Key = in.keys.Next(rng)
		in.orc.next(req.Key, in.val)
		req.Val = in.val
		userBytes = 8 + valueLen
	case serve.OpGetMulti:
		for i := range in.mkey {
			in.mkey[i] = in.keys.Next(rng)
		}
		req.Keys = in.mkey
	case serve.OpPutMulti:
		// The server applies the pairs in order, so a key drawn twice ends
		// at its later version, as the oracle's does.
		for i := range in.mkey {
			in.mkey[i] = in.keys.Next(rng)
			in.orc.next(in.mkey[i], in.mval[i])
		}
		req.Keys, req.Vals = in.mkey, in.mval
		userBytes = serveMulti * (8 + valueLen)
	}
	resp, err := in.cli.Do(req)
	if err != nil || resp.Status != serve.StatusOK {
		return false, 0
	}
	switch req.Op {
	case serve.OpGet:
		ok = in.orc.check(req.Key, resp.Val, resp.Found)
	case serve.OpGetMulti:
		ok = len(resp.Vals) == len(req.Keys) && len(resp.Founds) == len(req.Keys)
		for i := 0; ok && i < len(req.Keys); i++ {
			ok = in.orc.check(req.Keys[i], resp.Vals[i], resp.Founds[i])
		}
	default:
		ok = true
	}
	return ok, userBytes
}

// settle waits until the replayer has applied every committed put. On the
// virtual clock the back-end is idle nine tenths of the time and always
// caught up; on the host its goroutine can be scheduled late, and a
// front-end that finds its overlay unpruned pays a charged LPN read per
// put until the replayer runs. Waiting here, outside both brackets, keeps
// that scheduling out of the virtual metrics: without it a busy neighbour
// moved virt_kops by 4%.
func (in *serveInstance) settle() {
	// Two atomic loads, where Backend.ReplayLag would allocate in the window.
	for fe, bk := in.fe.Stats(), in.cl.Backends[0].Stats(); bk.TxReplayed.Load() < fe.TxCommits.Load(); {
		runtime.Gosched()
	}
}

// measure runs the window: one connection, one request in flight. Only
// that request advances the front-end's clock between send and receive, so
// the virtual bracket read from this goroutine is exact.
func (in *serveInstance) measure(m *measurement, seed int64, tr *trace.Tracer) error {
	bk := in.cl.Backends[0]
	snap := func() (stats.Snapshot, stats.Snapshot, int64, int64) {
		return in.fe.Stats().Snapshot(), bk.Stats().Snapshot(), int64(in.fe.Clock().Now()), int64(bk.Clock().Now())
	}
	clk := in.fe.Clock()
	rng, kinds := rand.New(rand.NewSource(seed)), serveKinds()
	err := runWindow(m, len(in.lat), snap, tr, func(i int) {
		kind := kinds.draw(rng)
		m.reqMix[kind]++
		in.settle()
		v0, t0 := clk.Now(), time.Now()
		ok, ub := in.request(kind, rng)
		in.rtt[i] = int64(time.Since(t0))
		in.lat[i] = int64(clk.Now() - v0)
		m.userBytes += int64(ub)
		if !ok {
			m.failed++
		}
	}, func() {})
	if err != nil {
		return err
	}
	m.lat, m.rtt = in.lat, in.rtt
	m.lagEnd = bk.ReplayLag()

	// OpPing is answered by the connection's reader without admission,
	// queueing or a structure operation: transport and framing alone.
	pings := make([]float64, 2000)
	for i := range pings {
		t0 := time.Now()
		if resp, err := in.cli.Ping(); err != nil || resp.Status != serve.StatusOK {
			return fmt.Errorf("ping: status %d: %v", resp.Status, err)
		}
		pings[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(pings)
	m.pingUS = pings[len(pings)/2]

	v0 := clk.Now()
	if resp, err := in.cli.Drain(); err != nil || resp.Status != serve.StatusOK {
		return fmt.Errorf("drain: status %d: %v", resp.Status, err)
	}
	m.drainNS = int64(clk.Now() - v0)
	// After the Drain every key must still read back its last acknowledged
	// put through the same connection.
	for key := uint64(1); key <= serveKeys; key += 100 {
		resp, err := in.cli.Get(key, 0)
		m.attempted++
		if err != nil || resp.Status != serve.StatusOK || !in.orc.check(key, resp.Val, resp.Found) {
			m.failed++
		}
	}
	return nil
}

func runServe(a runArgs) (*measurement, error) {
	ops := a.ops(serveOpsPerSec)
	m := &measurement{}
	in, err := repeatSetup(m, a.setups, func() (*serveInstance, error) { return setupServe(ops, a.tr) })
	if err != nil {
		return nil, err
	}
	defer in.close()
	return m, in.measure(m, a.seed, a.tr)
}
