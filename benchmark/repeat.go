package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles are Python's statistics.quantiles(v, n=4), the estimator the
// driver applies to its own runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runRepeated runs the workload in n child processes (one process per run,
// as the driver does), each with another seed, and prints every metric's
// median, quartiles and spread (q3-q1)/median. An end-to-end metric whose
// spread exceeds its regression bound is flagged, and fails the command.
func runRepeated(workload string, seed int64, seconds float64, traced, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	samples := map[string][]float64{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: last line: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed", i, res.Failed, res.Attempted)
		}
		for _, d := range defs {
			samples[d.Name] = append(samples[d.Name], res.Metrics[d.Name].Value)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d done\n", i+1, n, seed+int64(i))
	}
	fmt.Printf("workload %s: %d runs, seeds %d..%d, seconds %g\n", workload, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-30s %-10s %14s %14s %14s %9s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	noisy := 0
	for _, d := range defs {
		q1, q2, q3 := quartiles(samples[d.Name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound, flag := "-", ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", d.Bound*100)
			if spread > d.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
				noisy++
			}
		}
		fmt.Printf("%-30s %-10s %14.6f %14.6f %14.6f %8.3f%% %7s%s\n", d.Name, d.Unit, q1, q2, q3, spread*100, bound, flag)
	}
	if noisy > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", noisy)
	}
	return nil
}
