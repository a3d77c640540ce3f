package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer"`
}

// TestBenchmarkJSON holds the driver's file to the tables the program
// prints from, and both to the limits of the driver's schema.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the op counts are calibrated to %d", f.RunSeconds, nominalSeconds)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range append(append([]metric(nil), f.EndToEnd...), f.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d bytes", len(f.PerLayer), len(f.EndToEnd), len(raw))
	}
}

// TestReport runs the smallest workload through both reports and checks
// the driver's last line: exactly its four keys, every metric of the mode
// by name with its unit, and trace shares that sum to one per actor.
func TestReport(t *testing.T) {
	wl := &workloads[len(workloads)-1]
	for _, mode := range []struct {
		traced bool
		defs   []metric
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		if err := runOnce(&out, wl, 5, nominalSeconds*testScale, mode.traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasSuffix(lines[len(lines)-2], `"claim":null}`) {
			t.Errorf("summary does not end with a null claim: %s", lines[len(lines)-2])
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 {
			t.Errorf("last line has keys %v", keys)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(mode.defs) {
			t.Errorf("traced=%v: correct %v, %d attempted, %d failed, %d metrics", mode.traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics))
		}
		for _, d := range mode.defs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("metric %s: %+v, present %v", d.Name, v, ok)
			}
			if !mode.traced && v.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v", d.Name, v.Value)
			}
		}
		if mode.traced {
			fe := 0.0
			for _, n := range []string{"ds.virt_share", "core.virt_share_commit", "core.virt_share_fetch", "core.virt_share_other", "rdma.virt_share"} {
				fe += res.Metrics[n].Value
			}
			if math.Abs(fe-1) > 0.01 {
				t.Errorf("front-end shares sum to %v", fe)
			}
			if other := res.Metrics["core.virt_share_other"].Value; math.Abs(other) > 0.01 {
				t.Errorf("the trace ledger leaves %v of the front-end's time unexplained", other)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles %v %v %v, Python gives 3.5 24.0 160.0", q1, q2, q3)
	}
}

func TestWindowMean(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i)
	}
	if got := windowMean(v, 0.25, 0.75); got != 49.5 {
		t.Errorf("middle half of 0..99 averages %v", got)
	}
	if got := windowMean(v[:12], 0.985, 0.995); got != 11 {
		t.Errorf("a window narrower than one sample must give the sample at its rank, got %v", got)
	}
}
