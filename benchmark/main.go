// Command benchmark is the repository's benchmark: four closed-loop,
// single-driver workloads whose end-to-end metrics are read off the
// virtual clock, exact counters and the Go heap, with host time reported
// per layer and never bounded. See README.md for the metric definitions
// and the reasoning; BENCHMARK.json is the driver's view of the same.
//
//	benchmark --workload write-batched --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is the driver's JSON object. Op counts
// are fixed by --seconds (calibrated on the reference box), not by a
// timer, so virtual metrics and counts do not depend on host speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"asymnvm/internal/trace"
)

// runArgs is what a workload is run with.
type runArgs struct {
	seed   int64   // feeds the input generators only
	scale  float64 // --seconds over nominalSeconds
	setups int     // timed set-ups on fresh clusters; the last is measured
	// tr, when set, makes this the traced pass: a quarter of the ops, with
	// the tracer installed in every actor the workload builds.
	tr *trace.Tracer
}

// ops is the measured op count for a workload calibrated to opsPerSec.
func (a runArgs) ops(opsPerSec int) int {
	n := float64(opsPerSec) * nominalSeconds * a.scale
	if a.tr != nil {
		n /= 4
	}
	return max(segments, int(n+0.5))
}

type runFunc func(runArgs) (*measurement, error)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  runFunc
}

var workloads = []workloadDef{
	{"write-batched", "B+Tree, 100% uniform puts, RCB batch 64 + pipeline 8: the paper's headline cell; core commit, rdma posted writes and backend replay do the work, serve and the miss path none", runKV(&writeBatched)},
	{"read-miss", "SkipList 90/10 get/put, working set 20x the cache, no batching: rdma read round trips and the core miss/evict path dominate, and unbatched puts take the other write path", runKV(&readMiss)},
	{"serve-mixed", "HashTable behind serve.Server on loopback TCP, cache fits, Zipf 0.99 get/put/multi mix: reads stay in the cache, so serve, ring and arena do the host work; only unbatched puts use the fabric", runServe},
	{"recover-replay", "12 power-fail restarts replaying a 12.8k-put history with no checkpoint: backend replay, logrec decode and nvm do all the work, the front-end none; doubles as the durability check", runRecover},
}

// setupsPerRun is how many times the end-to-end pass sets up: setup_s is
// the median, and the last cluster is the one measured.
const setupsPerRun = 3

type closer interface{ close() }

// repeatSetup runs setup n times on fresh state, timing each into m, and
// returns the last instance. Earlier ones are stopped, dropped and their
// memory returned to the OS, so every set-up starts from the same heap.
func repeatSetup[T closer](m *measurement, n int, setup func() (T, error)) (T, error) {
	for i := 1; ; i++ {
		t0 := time.Now()
		in, err := setup()
		if err != nil {
			return in, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		if i >= n {
			return in, nil
		}
		in.close()
		debug.FreeOSMemory()
	}
}

// result is one run's outcome in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", nominalSeconds, "window length the op counts are scaled to, on the reference box")
	traced := flag.Int("trace", 0, "1: print the per-layer metrics (adds a traced pass); 0: the end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run N child processes on seeds seed..seed+N-1 and print each metric's quartiles")
	flag.Parse()

	// Pinned so that neither GOGC, GOMAXPROCS nor the box's core count
	// moves the numbers: one driver plus one service goroutine are busy.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.Name, w.Why)
		}
		os.Exit(2)
	}
	var err error
	if *repeat > 0 {
		err = runRepeated(wl.Name, *seed, *seconds, *traced, *repeat)
	} else {
		err = runOnce(os.Stdout, wl, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOnce runs one workload in this process and prints its report. A run
// with failed operations prints them and then fails.
func runOnce(out io.Writer, wl *workloadDef, seed int64, seconds float64, traced bool) error {
	args := runArgs{seed: seed, scale: seconds / nominalSeconds, setups: setupsPerRun}
	if traced {
		args.setups = 1 // setup_s is an end-to-end metric
	}
	m, err := wl.run(args)
	if err != nil {
		return err
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, endToEndValues(m)
	fmt.Fprintf(out, "workload %s seed %d seconds %g\n", wl.Name, seed, seconds)
	fmt.Fprintln(out, "model: clock.DefaultProfile (2 µs RTT, 100/300 ns NVM), unvalidated against hardware")
	if traced {
		shapes := shapesOf(m)
		probes, err := runProbes(shapes)
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
		args.tr = trace.New()
		tm, err := wl.run(args)
		if err != nil {
			return err
		}
		res.Attempted += tm.attempted
		res.Failed += tm.failed
		defs, values = perLayer, perLayerValues(m, tm, probes)
		fmt.Fprintf(out, "probe shapes (from the untraced window's counters): %+v\n", shapes)
		fmt.Fprintf(out, "trace ledger coverage over the traced window: front-end %.4f, back-end %.4f of actor elapsed\n",
			tm.shares.feCovered, tm.shares.bkCover)
	}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(out, "  %-30s %16.6f %-10s (%s is better%s)\n", d.Name, v, d.Unit, d.Better, bound)
	}
	p99 := "p99"
	if m.restartCount > 0 {
		p99 = "p99 is the maximum, p50 the median restart"
	}
	fmt.Fprintf(out, "samples: %d virtual latencies (%s), %d set-ups %.3f s, %d resident-set samples, %d measured ops\n",
		len(m.lat), p99, len(m.setupS), m.setupS, len(m.seg), m.ops)
	fmt.Fprintf(out, "ops_attempted %d ops_failed %d\n", res.Attempted, res.Failed)
	res.Correct = res.Failed == 0
	summary, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Correct  bool   `json:"correct"`
		Claim    any    `json:"claim"`
	}{wl.Name, seed, res.Correct, nil})
	fmt.Fprintf(out, "summary %s\n", summary)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
