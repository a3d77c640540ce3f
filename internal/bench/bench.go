// Package bench regenerates every table and figure of the paper's
// evaluation (§9). Each experiment has a driver returning Rows — the same
// series the paper plots — measured in virtual time over the simulated
// fabric, so the shapes (who wins, by what factor, where lines cross) are
// comparable even though the absolute testbed differs.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/symmetric"
	"asymnvm/internal/trace"
	"asymnvm/internal/txapp"
	"asymnvm/internal/workload"
)

// Row is one measured data point.
type Row struct {
	Experiment string  // "table3", "fig6", …
	Series     string  // line/config, e.g. "AsymNVM-RCB"
	Label      string  // categorical x, e.g. "BST"
	X          float64 // numeric x where applicable (batch size, readers…)
	KOPS       float64 // primary metric
	Extra      map[string]float64
}

// Scale sizes an experiment run. Quick keeps `go test -bench` fast;
// the cmd tool defaults to Full.
type Scale struct {
	Seed     int // initial structure population
	Ops      int // measured operations per cell
	Keys     int // key space size
	TATPSubs int
	Accounts int
}

// QuickScale is used by the checked-in testing.B benchmarks.
func QuickScale() Scale {
	return Scale{Seed: 4000, Ops: 1200, Keys: 16000, TATPSubs: 400, Accounts: 400}
}

// FullScale approaches the paper's populations (minutes of host time).
func FullScale() Scale {
	return Scale{Seed: 100000, Ops: 20000, Keys: 400000, TATPSubs: 20000, Accounts: 20000}
}

// dsKinds enumerates the Table 3 benchmark columns.
var table3Benchmarks = []string{
	"TX(SmallBank)", "TX(TATP)", "Queue", "Stack", "HashTable",
	"SkipList", "BST", "BPT", "MV-BST", "MV-BPT",
}

// nodeBytes approximates a structure's per-item NVM footprint, used to
// size "cache = 10% of NVM size" like the paper.
func nodeBytes(name string) int {
	switch name {
	case "Queue", "Stack":
		return 80
	case "HashTable":
		return 88
	case "SkipList":
		return 208
	case "BST", "MV-BST":
		return 96
	case "BPT", "MV-BPT", "TX(TATP)":
		return 120
	case "TX(SmallBank)":
		return 40
	default:
		return 100
	}
}

// cacheBytesFor sizes the front-end cache as pct% of the structure's
// NVM footprint.
func cacheBytesFor(name string, seed int, pct float64) int64 {
	b := int64(float64(seed) * float64(nodeBytes(name)) * pct / 100)
	if b < 8<<10 {
		b = 8 << 10
	}
	return b
}

// liveTracer, when set via SetTracer, traces every cluster the drivers
// build — the bench binary's -http observability hook. Actor-name
// collisions across cells resolve to numbered aliases in the tracer.
var liveTracer *trace.Tracer

// SetTracer installs a tracer picked up by all subsequently built
// clusters. Call before running drivers; not safe concurrently with them.
func SetTracer(tr *trace.Tracer) { liveTracer = tr }

// newAsymCluster builds a one-back-end cluster with the remote profile.
func newAsymCluster(deviceBytes int) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.DeviceBytes = deviceBytes
	cfg.Tracer = liveTracer
	return cluster.New(cfg)
}

// kopsOf converts ops over a virtual duration to KOPS.
func kopsOf(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1000
}

// kvHarness owns one structure instance plus the actors driving it.
type kvHarness struct {
	name  string
	kv    ds.KV
	stack *ds.Stack
	queue *ds.Queue
	tatp  *txapp.TATP
	bank  *txapp.SmallBank
	fe    *core.Frontend
	conn  *core.Conn
	gen   *workload.Generator
	vcap  int
}

// buildKV creates the named benchmark structure on conn and seeds it.
func buildKV(conn *core.Conn, name string, sc Scale, opts ds.Options) (*kvHarness, error) {
	h := &kvHarness{name: name, fe: conn.Frontend(), conn: conn, vcap: opts.ValueCap}
	if h.vcap == 0 {
		h.vcap = 64
	}
	uniq := fmt.Sprintf("%s-%d", sanitize(name), conn.Frontend().ID())
	var err error
	switch name {
	case "Stack":
		h.stack, err = ds.CreateStack(conn, uniq, opts)
		if err == nil {
			for i := 0; i < sc.Seed; i++ {
				if err = h.stack.Push(workload.Value(uint64(i), 64)); err != nil {
					break
				}
			}
			if err == nil {
				err = h.stack.Flush()
			}
		}
	case "Queue":
		h.queue, err = ds.CreateQueue(conn, uniq, opts)
		if err == nil {
			for i := 0; i < sc.Seed; i++ {
				if err = h.queue.Enqueue(workload.Value(uint64(i), 64)); err != nil {
					break
				}
			}
			if err == nil {
				err = h.queue.Flush()
			}
		}
	case "TX(TATP)":
		h.tatp, err = txapp.NewTATP(conn, uniq, uint64(sc.TATPSubs), opts)
	case "TX(SmallBank)":
		h.bank, err = txapp.NewSmallBank(conn, uniq, uint64(sc.Accounts), opts)
	default:
		h.kv, err = createKVByName(conn, name, uniq, opts)
		if err == nil {
			err = seedKV(h.kv, sc)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", name, err)
	}
	h.gen = workload.New(workload.Config{
		Seed: 1234, Keys: uint64(sc.Keys), WritePct: 100, ValueLen: 64,
	})
	return h, nil
}

func sanitize(name string) string {
	s := strings.NewReplacer("(", "-", ")", "", "+", "p").Replace(name)
	return strings.ToLower(s)
}

func createKVByName(conn *core.Conn, name, uniq string, opts ds.Options) (ds.KV, error) {
	switch name {
	case "HashTable":
		return ds.CreateHashTable(conn, uniq, opts)
	case "SkipList":
		return ds.CreateSkipList(conn, uniq, opts)
	case "BST":
		return ds.CreateBST(conn, uniq, opts)
	case "BPT":
		return ds.CreateBPTree(conn, uniq, opts)
	case "MV-BST":
		return ds.CreateMVBST(conn, uniq, opts)
	case "MV-BPT":
		return ds.CreateMVBPTree(conn, uniq, opts)
	}
	return nil, fmt.Errorf("bench: unknown structure %q", name)
}

func seedKV(kv ds.KV, sc Scale) error {
	// Seed with every sc.Keys/sc.Seed-th key so the measured workload
	// mixes hits and fresh inserts like a warmed store. Keys arrive in a
	// pseudo-random permutation — sorted insertion would degenerate the
	// unbalanced trees into linked lists, which no real workload does.
	stride := sc.Keys / sc.Seed
	if stride < 1 {
		stride = 1
	}
	perm := uint64(1)
	n := uint64(sc.Seed)
	for i := 0; i < sc.Seed; i++ {
		perm = (perm*6364136223846793005 + 1442695040888963407)
		idx := perm % n
		k := idx*uint64(stride) + 1
		if err := kv.Put(k, workload.Value(k, 64)); err != nil {
			return err
		}
	}
	// The permutation above repeats some indexes; top up the count with a
	// sequential sweep of small keys so the population size is stable.
	for i := 0; i < sc.Seed/8; i++ {
		k := uint64(i*stride + 1)
		if err := kv.Put(k, workload.Value(k, 64)); err != nil {
			return err
		}
	}
	return kv.Flush()
}

// run measures ops operations with the given write percentage, returning
// virtual-time KOPS.
func (h *kvHarness) run(ops, writePct int) (float64, error) {
	h.gen = workload.New(workload.Config{
		Seed: 99, Keys: h.gen.KeySpace(), WritePct: writePct, ValueLen: 64,
	})
	start := h.fe.Clock().Now()
	if err := h.runOps(ops); err != nil {
		return 0, err
	}
	if err := h.flush(); err != nil {
		return 0, err
	}
	return kopsOf(ops, h.fe.Clock().Now()-start), nil
}

func (h *kvHarness) runOps(ops int) error {
	switch {
	case h.stack != nil:
		for i := 0; i < ops; i++ {
			runtime.Gosched() // let co-running actors interleave (1-core host)
			op := h.gen.Next()
			if op.Kind == workload.OpPut {
				if err := h.stack.Push(workload.Value(op.Key, 64)); err != nil {
					return err
				}
			} else {
				if _, _, err := h.stack.Pop(); err != nil {
					return err
				}
			}
		}
	case h.queue != nil:
		for i := 0; i < ops; i++ {
			runtime.Gosched()
			op := h.gen.Next()
			if op.Kind == workload.OpPut {
				if err := h.queue.Enqueue(workload.Value(op.Key, 64)); err != nil {
					return err
				}
			} else {
				if _, _, err := h.queue.Dequeue(); err != nil {
					return err
				}
			}
		}
	case h.tatp != nil:
		r := uint64(777)
		for i := 0; i < ops; i++ {
			runtime.Gosched()
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			if err := h.tatp.DoTx(r); err != nil {
				return err
			}
		}
	case h.bank != nil:
		r := uint64(333)
		for i := 0; i < ops; i++ {
			runtime.Gosched()
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			if err := h.bank.DoTx(r); err != nil {
				return err
			}
		}
	default:
		for i := 0; i < ops; i++ {
			runtime.Gosched()
			op := h.gen.Next()
			if op.Kind == workload.OpPut {
				if err := h.kv.Put(op.Key, workload.Value(op.Key, 64)); err != nil {
					return err
				}
			} else {
				if _, _, err := h.kv.Get(op.Key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (h *kvHarness) flush() error {
	switch {
	case h.stack != nil:
		return h.stack.Flush()
	case h.queue != nil:
		return h.queue.Flush()
	case h.tatp != nil:
		return h.tatp.Flush()
	case h.bank != nil:
		return h.bank.Flush()
	default:
		return h.kv.Flush()
	}
}

// configCell describes one Table 3 configuration column.
type configCell struct {
	series    string
	symmetric bool
	mode      core.Mode // ignored for symmetric rows except Batch
	cachePct  float64
}

// table3Configs returns the six configurations of Table 3.
func table3Configs() []configCell {
	return []configCell{
		{series: "Symmetric", symmetric: true, mode: core.Mode{Batch: 1}},
		{series: "Symmetric-B", symmetric: true, mode: core.Mode{Batch: 1024}},
		{series: "AsymNVM-Naive", mode: core.ModeNaive()},
		{series: "AsymNVM-R", mode: core.ModeR()},
		{series: "AsymNVM-RC", mode: core.ModeRC(0), cachePct: 10},
		{series: "AsymNVM-RCB", mode: core.ModeRCB(0, 1024), cachePct: 10},
	}
}

// measureCell runs one (benchmark, config) cell and returns its row, the
// caller's coordinates left blank: KOPS, and in Extra what the front-end
// put on the fabric per operation (write_b_per_op, from the BytesWrite
// counter over the measured window — the cost ROADMAP item 6 tracks).
func measureCell(name string, cfg configCell, sc Scale, writePct int) (Row, error) {
	opts := ds.Options{Create: benchCreateOpts(), Buckets: 1 << 14}
	var conn *core.Conn
	if cfg.symmetric {
		node, err := symmetric.New(512 << 20)
		if err != nil {
			return Row{}, err
		}
		defer node.Stop()
		if conn, err = node.Client(1, cfg.mode.Batch); err != nil {
			return Row{}, err
		}
	} else {
		cl, err := newAsymCluster(512 << 20)
		if err != nil {
			return Row{}, err
		}
		defer cl.Stop()
		mode := cfg.mode
		if cfg.cachePct > 0 {
			mode.CacheBytes = cacheBytesFor(name, sc.Seed, cfg.cachePct)
		}
		_, conns, err := cl.NewFrontend(1, mode)
		if err != nil {
			return Row{}, err
		}
		conn = conns[0]
	}
	h, err := buildKV(conn, name, sc, opts)
	if err != nil {
		return Row{}, err
	}
	written := h.fe.Stats().BytesWrite.Load()
	kops, err := h.run(sc.Ops, writePct)
	written = h.fe.Stats().BytesWrite.Load() - written
	return Row{KOPS: kops, Extra: map[string]float64{"write_b_per_op": float64(written) / float64(sc.Ops)}}, err
}

func benchCreateOpts() core.CreateOptions {
	return core.CreateOptions{MemLogSize: 32 << 20, OpLogSize: 8 << 20}
}

// supportsConfig reports whether Table 3 has a number for the cell (its
// footnote: O(1) structures gain nothing from batching; queue/stack
// combine batch+cache so the cache-only column is empty).
func supportsConfig(name, series string) bool {
	switch series {
	case "Symmetric-B", "AsymNVM-RCB":
		if name == "HashTable" || name == "TX(SmallBank)" {
			return false
		}
	case "AsymNVM-RC":
		if name == "Queue" || name == "Stack" {
			return false
		}
	}
	return true
}

// FormatRows renders rows grouped by experiment as aligned text tables.
func FormatRows(rows []Row) string {
	var b strings.Builder
	byExp := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byExp[r.Experiment]; !ok {
			order = append(order, r.Experiment)
		}
		byExp[r.Experiment] = append(byExp[r.Experiment], r)
	}
	for _, exp := range order {
		fmt.Fprintf(&b, "== %s ==\n", exp)
		rs := byExp[exp]
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Series != rs[j].Series {
				return rs[i].Series < rs[j].Series
			}
			return rs[i].X < rs[j].X
		})
		for _, r := range rs {
			fmt.Fprintf(&b, "%-16s %-14s x=%-8.5g %10.1f KOPS", r.Series, r.Label, r.X, r.KOPS)
			if len(r.Extra) > 0 {
				keys := make([]string, 0, len(r.Extra))
				for k := range r.Extra {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, "  %s=%.4g", k, r.Extra[k])
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
