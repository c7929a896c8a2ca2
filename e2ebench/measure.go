package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	streamsmetrics "streams/internal/metrics"
)

// phase brackets one timed phase: wall time, process CPU (getrusage)
// and the Go runtime's allocation and GC counters.
type phase struct {
	start        time.Time
	cpu          time.Duration
	ms           runtime.MemStats
	steal, total uint64
}

// phaseStats is what one timed phase cost.
type phaseStats struct {
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapPeak   uint64
	stealShare float64
}

// hostTicks reads the machine-wide CPU time stolen by the hypervisor and
// the total, in clock ticks, from /proc/stat. Where that cannot be read
// both are 0, and timings go uncorrected.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// beginPhase collects garbage left by set-up, so the phase starts from
// the live heap of the program it is about to run, then snapshots the
// counters. It is called after set-up and before Start.
func beginPhase() *phase {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.ms)
	heap.reset(liveHeap())
	p.cpu = processCPU()
	p.steal, p.total = hostTicks()
	p.start = time.Now()
	return p
}

// end closes the phase at the given instant (the last result's arrival,
// or the return of Wait).
func (p *phase) end(at time.Time) phaseStats {
	cpu := processCPU()
	steal, total := hostTicks()
	share := 0.0
	if total > p.total {
		share = float64(steal-p.steal) / float64(total-p.total)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseStats{
		elapsed:    at.Sub(p.start),
		cpu:        cpu - p.cpu,
		allocBytes: ms.TotalAlloc - p.ms.TotalAlloc,
		gcCycles:   ms.NumGC - p.ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs - p.ms.PauseTotalNs),
		heapPeak:   heap.peak.Load(),
		stealShare: share,
	}
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the user+system CPU time of every thread of the process.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling OS thread; the caller must
// hold it with runtime.LockOSThread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, Linux only
	return rusageCPU(rusageThread)
}

// heapWatch keeps the largest live heap seen at the end of any GC cycle
// since the last reset. A finalizer that re-arms itself runs once per
// cycle, so the peak is sampled at every collection without a polling
// goroutine that would compete with the scheduler's threads.
type heapWatch struct {
	once sync.Once
	peak atomic.Uint64
}

var heap heapWatch

type gcSentinel struct{ _ *byte }

func (h *heapWatch) arm() {
	s := &gcSentinel{}
	runtime.SetFinalizer(s, func(*gcSentinel) {
		h.observe(liveHeap())
		h.arm()
	})
}

func (h *heapWatch) reset(live uint64) {
	h.once.Do(h.arm)
	h.peak.Store(live)
}

func (h *heapWatch) observe(live uint64) {
	for {
		cur := h.peak.Load()
		if live <= cur || h.peak.CompareAndSwap(cur, live) {
			return
		}
	}
}

// liveHeap is the heap the last GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs (the mean of the middle two when the
// count is even), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationsMs sorts ds and returns them in milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	slices.Sort(out)
	return out
}

// hostRecord identifies the machine and code a run measured, so numbers
// from different hosts are never compared.
type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Threads    int    `json:"threads"`
}

func host(threads int) hostRecord {
	commit := os.Getenv("E2EBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Threads:    threads,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// settle collects garbage before a timed set-up, so set-up time does
// not depend on how much garbage the previous round left behind, and
// returns the live heap: the benchmark's own inputs and references,
// which heap_peak_mb leaves out. It collects twice because the
// scheduler's sync.Pools still reach the previous round's program
// through their victim caches until the second cycle.
func settle() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}

// timerFloor measures, for d, how late a bare 50µs sleep loop wakes:
// the host's floor under every latency the benchmark measures. It
// returns the 99th percentile in milliseconds.
func timerFloor(d time.Duration) float64 {
	const nap = 50 * time.Microsecond
	var late []time.Duration
	for end := time.Now().Add(d); time.Now().Before(end); {
		s := time.Now()
		time.Sleep(nap)
		late = append(late, time.Since(s)-nap)
	}
	return quantile(durationsMs(late), 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// newLatencySeam returns the histogram that switches on the runtime's
// admission stamp (pe.Config.Latency): with it set, every tuple carries
// its source-submit time in Stamp to the sink.
func newLatencySeam() *streamsmetrics.Histogram { return streamsmetrics.NewHistogram(8) }
