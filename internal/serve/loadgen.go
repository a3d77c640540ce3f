package serve

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/stats"
	"asymnvm/internal/txapp"
	"asymnvm/internal/workload"
)

// LoadgenConfig drives one open-loop simulation.
type LoadgenConfig struct {
	Seed     int64
	Duration time.Duration         // virtual horizon
	Sched    workload.RateSchedule // offered-load shape
	Keys     uint64
	WritePct int
	TxPct    int     // percentage of ops that are smallbank transactions
	Theta    float64 // base key skew (0 = uniform)
	ValueLen int

	// HotTheta, when > 0, switches keys to this Zipf exponent inside the
	// flash window [HotStart, HotStart+HotDur) — the hot-key spike of a
	// flash crowd.
	HotTheta float64
	HotStart time.Duration
	HotDur   time.Duration

	// SlowFrac of completed responses go to clients that never drain
	// them: the work was done but the bytes were shed after the write
	// timeout, so it counts against goodput as ServeSlowDrop.
	SlowFrac float64

	Budget    time.Duration // per-request deadline budget (0 = none)
	Workers   int           // simulated service parallelism
	Admission AdmissionConfig
	QueueCap  int
	LIFOFrac  float64
	Tenants   int // requests round-robin over this many tenants (min 1)
}

// LoadgenResult summarizes one simulation.
type LoadgenResult struct {
	Offered      int64 // arrivals inside the horizon
	Accepted     int64
	Rejected     int64 // admission overload rejections
	Breaker      int64 // breaker sheds
	Expired      int64 // died in queue before dispatch
	DeadlineMiss int64 // missed deadline during/after service
	SlowDrop     int64 // completed but shed on the response path
	Good         int64 // completed in time, response delivered
	Elapsed      time.Duration
	GoodputKOPS  float64
	P50, P99     time.Duration // accepted-and-completed request latency
	MeanSvc      time.Duration // measured mean service time
}

func (r LoadgenResult) String() string {
	return fmt.Sprintf("offered=%d acc=%d rej=%d brk=%d exp=%d dl=%d slow=%d good=%d goodput=%.1fkops p50=%v p99=%v",
		r.Offered, r.Accepted, r.Rejected, r.Breaker, r.Expired, r.DeadlineMiss, r.SlowDrop, r.Good, r.GoodputKOPS, r.P50, r.P99)
}

// completion is one in-service request finishing at T.
type completion struct {
	T  time.Duration
	it *Item
}

type completionHeap []completion

func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(i, j int) bool { return h[i].T < h[j].T }
func (h completionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Loadgen runs an open-loop overload simulation: a discrete-event loop
// over a seeded arrival stream, pushing requests through the very same
// Admission and RunQueue the TCP server uses, with service times
// measured by executing the real operations on the given front-end and
// charging their virtual-clock cost. Everything is virtual time, so one
// seed gives one byte-identical result — overload curves that are
// benchmarkable and pinnable.
//
// The caller's front-end and structures are operated only from this
// goroutine (SWMR holds).
func Loadgen(fe *core.Frontend, kv *ds.HashTable, bank *txapp.SmallBank, cfg LoadgenConfig) (LoadgenResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	adm := NewAdmission(cfg.Admission)
	q := NewRunQueue(cfg.QueueCap, cfg.LIFOFrac)
	arr := workload.NewArrivals(cfg.Seed, cfg.Sched)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	baseKeys := keyDist(cfg.Keys, cfg.Theta)
	hotKeys := baseKeys
	if cfg.HotTheta > 0 {
		hotKeys = keyDist(cfg.Keys, cfg.HotTheta)
	}

	var res LoadgenResult
	var lat stats.Hist
	var svcSum time.Duration
	var svcN int64

	// Worker pool: a min-heap of free instants.
	free := make([]time.Duration, cfg.Workers)

	// measure executes one op on the front-end and returns its virtual
	// cost.
	measure := func(req Request) (time.Duration, error) {
		t0 := fe.Clock().Now()
		if err := execDirect(kv, bank, req); err != nil {
			return 0, err
		}
		return fe.Clock().Now() - t0, nil
	}

	// nextReq draws one request for instant t.
	var seq uint64
	nextReq := func(t time.Duration) Request {
		seq++
		keys := baseKeys
		if cfg.HotTheta > 0 && t >= cfg.HotStart && t < cfg.HotStart+cfg.HotDur {
			keys = hotKeys
		}
		req := drawOp(rng, keys, cfg)
		req.ID = seq
		req.Tenant = uint16(seq % uint64(cfg.Tenants))
		req.BudgetNS = uint64(cfg.Budget)
		return req
	}

	var comps completionHeap
	// dispatch pulls queued work onto any worker free at or before now.
	dispatch := func(now time.Duration) error {
		for {
			w := minIdx(free)
			if free[w] > now {
				return nil
			}
			it := q.Pop()
			if it == nil {
				return nil
			}
			start := now
			if free[w] > start {
				start = free[w]
			}
			if it.DeadlineAt > 0 && start >= it.DeadlineAt {
				res.Expired++
				adm.Done()
				continue
			}
			if it.DeadlineAt > 0 && it.Read {
				// The front-end clock and the simulation timeline differ;
				// arm the remaining budget, not the absolute instant.
				fe.SetBudget(it.DeadlineAt - start)
			}
			svc, err := measure(it.Req)
			fe.ClearDeadline()
			if err != nil {
				if errors.Is(err, core.ErrDeadlineExceeded) {
					res.DeadlineMiss++
					adm.Done()
					continue
				}
				return err
			}
			svcSum += svc
			svcN++
			free[w] = start + svc
			heap.Push(&comps, completion{T: free[w], it: it})
		}
	}
	complete := func(c completion) {
		adm.Done()
		latNS := c.T - c.it.ArrivedAt
		if c.it.DeadlineAt > 0 && c.T > c.it.DeadlineAt {
			res.DeadlineMiss++
			return
		}
		if cfg.SlowFrac > 0 && rng.Float64() < cfg.SlowFrac {
			res.SlowDrop++
			return
		}
		lat.Observe(int64(latNS))
		res.Good++
	}

	for {
		at, ok := arr.Next()
		if !ok || at > cfg.Duration {
			break
		}
		// Retire everything that finished before this arrival.
		for len(comps) > 0 && comps[0].T <= at {
			c := heap.Pop(&comps).(completion)
			complete(c)
			if err := dispatch(c.T); err != nil {
				return res, err
			}
		}
		res.Offered++
		tenant := uint16(res.Offered % int64(cfg.Tenants))
		dec := adm.Admit(tenant, at)
		if !dec.Admit {
			if dec.Status == StatusBreaker {
				res.Breaker++
			} else {
				res.Rejected++
			}
			continue
		}
		req := nextReq(at)
		req.Tenant = tenant
		it := &Item{Req: req, Read: req.Op == OpGet, ArrivedAt: at}
		if req.BudgetNS > 0 {
			it.DeadlineAt = at + time.Duration(req.BudgetNS)
		}
		if !q.Push(it) {
			adm.Done()
			res.Rejected++
			continue
		}
		res.Accepted++
		if err := dispatch(at); err != nil {
			return res, err
		}
	}
	// Drain the tail.
	for len(comps) > 0 || q.Len() > 0 {
		for len(comps) > 0 {
			c := heap.Pop(&comps).(completion)
			complete(c)
			if err := dispatch(c.T); err != nil {
				return res, err
			}
		}
		if q.Len() > 0 {
			// All workers idle with work queued: jump to the earliest
			// free instant.
			if err := dispatch(free[minIdx(free)]); err != nil {
				return res, err
			}
			if len(comps) == 0 {
				break // everything left had expired
			}
		}
	}

	res.Elapsed = cfg.Duration
	if res.Elapsed > 0 {
		res.GoodputKOPS = float64(res.Good) / res.Elapsed.Seconds() / 1e3
	}
	snap := lat.Snapshot()
	res.P50 = time.Duration(snap.Quantile(0.50))
	res.P99 = time.Duration(snap.Quantile(0.99))
	if svcN > 0 {
		res.MeanSvc = svcSum / time.Duration(svcN)
	}
	return res, nil
}

func keyDist(keys uint64, theta float64) workload.KeyDist {
	if theta > 0 {
		return workload.Scrambled{Inner: workload.NewZipf(keys, theta)}
	}
	return workload.Uniform{Keys: keys}
}

// drawOp draws one operation from cfg's mix over the given key
// distribution.
func drawOp(rng *rand.Rand, keys workload.KeyDist, cfg LoadgenConfig) Request {
	var req Request
	switch p := rng.Intn(100); {
	case p < cfg.TxPct:
		req.Op = OpTx
		req.TxR = rng.Uint64()
	case p < cfg.TxPct+cfg.WritePct:
		req.Op = OpPut
		req.Key = keys.Next(rng)
		req.Val = workload.Value(req.Key, cfg.ValueLen)
	default:
		req.Op = OpGet
		req.Key = keys.Next(rng)
	}
	return req
}

// execDirect runs one request straight against the structures.
func execDirect(kv *ds.HashTable, bank *txapp.SmallBank, req Request) error {
	switch req.Op {
	case OpGet:
		_, _, err := kv.Get(req.Key)
		return err
	case OpPut:
		return kv.Put(req.Key, req.Val)
	case OpTx:
		return bank.DoTx(req.TxR)
	}
	return nil
}

// Calibrate measures the mean virtual service time of cfg's operation
// mix by executing ops requests back to back (closed loop) on the
// front-end. The reciprocal, times the worker count, is the simulated
// plane's capacity — the 1× point of an overload sweep.
func Calibrate(fe *core.Frontend, kv *ds.HashTable, bank *txapp.SmallBank, cfg LoadgenConfig, ops int) (time.Duration, error) {
	if ops <= 0 {
		ops = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xca11b))
	keys := keyDist(cfg.Keys, cfg.Theta)
	t0 := fe.Clock().Now()
	for i := 0; i < ops; i++ {
		if err := execDirect(kv, bank, drawOp(rng, keys, cfg)); err != nil {
			return 0, err
		}
	}
	return (fe.Clock().Now() - t0) / time.Duration(ops), nil
}

func minIdx(free []time.Duration) int {
	m := 0
	for i, t := range free {
		if t < free[m] {
			m = i
		}
	}
	return m
}
