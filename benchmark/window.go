package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"asymnvm/internal/stats"
)

// segments is how many equal-op slices the measured window is cut into.
// RSS is sampled and host time split at each boundary, so host_rss_mb is a
// maximum over 20 samples and process.host_kops comes with its quartiles.
const segments = 20

// measurement is everything one run of a workload observed. Every metric,
// end-to-end or per-layer, is derived from these raw numbers in layers.go.
type measurement struct {
	setupS []float64 // wall seconds of each set-up

	ops       int64   // operations inside the measured window
	userBytes int64   // user bytes written inside it (8 B key + value)
	virtNS    int64   // driving actor's virtual time across it
	lat       []int64 // per-op virtual ns, one sample per op
	attempted int64   // window ops plus oracle reads
	failed    int64   // errors and oracle mismatches among them

	fe, bk  stats.Snapshot // counter deltas across the window (A)
	bkVirt  int64          // back-end clock advance across the window
	lagEnd  uint64         // ReplayLag() at the end of the window
	drainNS int64          // front-end virtual time of the Drain after it

	wall     time.Duration   // host time of the window (D)
	seg      []time.Duration // host time of each segment
	cpu      time.Duration   // user+sys CPU of the process across it
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
	rssKB    int64 // maximum VmRSS over the segment boundaries

	// serve-mixed only.
	rtt    []int64  // client-side wall ns per request
	reqMix [4]int64 // requests issued: get, put, getmulti, putmulti
	pingUS float64  // median OpPing round trip after the window

	// recover-replay only; there each segment is one backend.New.
	restartCount int
	replayOps    int64   // RecoveryReplayOps of the last restart
	ageUSPerPut  float64 // wall µs per aging put

	shares *rollup // (B), set on traced measurements only
}

// window brackets measured host work: heap statistics and CPU time are
// read at begin and end only, and each segment boundary costs one clock
// read and one allocation-free pread of /proc/self/statm. end adds to the
// measurement, so a workload whose measured work is interrupted by set-up
// (recover-replay) opens one window per stretch.
type window struct {
	m        *measurement
	statm    *os.File
	ms       runtime.MemStats
	ru       syscall.Rusage
	mallocs0 uint64
	allocB0  uint64
	gc0      uint32
	pause0   uint64
	cpu0     time.Duration
	t0       time.Time
	segStart time.Time
	statmBuf [128]byte
	pageKB   int64
	rssOK    bool
}

func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginWindow(m *measurement) (*window, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	w := &window{m: m, statm: f, pageKB: int64(os.Getpagesize()) / 1024}
	runtime.ReadMemStats(&w.ms)
	w.mallocs0, w.allocB0, w.gc0, w.pause0 = w.ms.Mallocs, w.ms.TotalAlloc, w.ms.NumGC, w.ms.PauseTotalNs
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru); err != nil {
		f.Close()
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	w.cpu0 = cpuTime(&w.ru)
	w.t0 = time.Now()
	w.segStart = w.t0
	return w, nil
}

// boundary closes the current segment and samples the resident set.
func (w *window) boundary() {
	now := time.Now()
	w.m.seg = append(w.m.seg, now.Sub(w.segStart))
	w.segStart = now
	// statm is "size resident shared ...", in pages; parsed by hand so the
	// boundary allocates nothing.
	n, _ := w.statm.ReadAt(w.statmBuf[:], 0)
	i := 0
	for i < n && w.statmBuf[i] != ' ' {
		i++
	}
	pages, digits := int64(0), 0
	for i++; i < n && w.statmBuf[i] >= '0' && w.statmBuf[i] <= '9'; i++ {
		pages = pages*10 + int64(w.statmBuf[i]-'0')
		digits++
	}
	w.rssOK = digits > 0
	if kb := pages * w.pageKB; kb > w.m.rssKB {
		w.m.rssKB = kb
	}
}

// end stops measuring and adds the window's totals to the measurement.
func (w *window) end() error {
	defer w.statm.Close()
	m := w.m
	m.wall += time.Since(w.t0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	m.cpu += cpuTime(&w.ru) - w.cpu0
	runtime.ReadMemStats(&w.ms)
	m.mallocs += w.ms.Mallocs - w.mallocs0
	m.allocB += w.ms.TotalAlloc - w.allocB0
	m.gcCycles += w.ms.NumGC - w.gc0
	m.gcPause += time.Duration(w.ms.PauseTotalNs - w.pause0)
	if !w.rssOK {
		return fmt.Errorf("no resident-set sample from /proc/self/statm")
	}
	return nil
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(int(q*float64(len(sorted))+0.5)-1, 0), len(sorted)-1)
	return sorted[i]
}

// windowMean is the mean of the order statistics ranked between the lo and
// hi quantiles of sorted (at least one of them). Virtual latencies are
// discrete: more than half of write-batched's samples are one exact value,
// and a nearest-rank percentile that sits on the boundary between two such
// atoms flips between them from seed to seed. Averaging a rank window
// around the percentile moves smoothly with the atoms' shares instead.
func windowMean(sorted []int64, lo, hi float64) float64 {
	n := float64(len(sorted))
	i0 := min(int(lo*n), len(sorted)-1)
	i1 := max(min(int(math.Ceil(hi*n)), len(sorted)), i0+1)
	sum := 0.0
	for _, v := range sorted[i0:i1] {
		sum += float64(v)
	}
	return sum / float64(i1-i0)
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, median, _ := quartiles(v)
	return median
}
