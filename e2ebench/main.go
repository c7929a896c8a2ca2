// Command e2ebench is the repository's end-to-end benchmark. It drives
// the runtime only through its package APIs — spl.Compile, pe.New,
// Start and Wait, ingest.Server and ingest.Client, ops.Topology, the
// scheduler's Stats, ingest.Snapshot and runtime/metrics — on three
// workloads that load different layers:
//
//	loginfailures  the paper's Fig. 1 SPL program over a seeded syslog
//	mixed          the paper's Fig. 10 graph of VM-programmed Workers
//	ingest         a fixed light load over TCP into an ingest.Server
//
// Usage:
//
//	e2ebench --workload mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from rounds that record spans, alternating with untraced rounds whose
// difference is the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"streams/internal/pe"
)

// workload is one benchmark workload. A round sets the program up,
// runs one fixed amount of input through it, and checks the output;
// tr is nil in untraced rounds.
type workload interface {
	round(tr *tracer, id uint64) roundStats
}

// roundStats is one round's measurements.
type roundStats struct {
	setup time.Duration // set-up, excluded from the timed phase
	ph    phaseStats
	// heapBase is the live heap before set-up: the benchmark's inputs.
	heapBase uint64
	elapsed  time.Duration // the interval throughput is taken over
	cpu      time.Duration // CPU charged to the program under test
	records  uint64        // input records offered
	failed   uint64        // records whose output was wrong or missing
	err      error         // the round could not run to its end
	latency  []float64     // per result, sorted, milliseconds

	sched    pe.SchedStats
	executed uint64
	vmOps    int
	layers   map[string]float64 // layer times, traced rounds only
}

// drainDeadline bounds a round's wait for its program to drain, so a
// program that loses its final punctuation fails the run instead of
// hanging it.
const drainDeadline = time.Minute

// minRounds is the fewest measured rounds a run makes, whatever its
// length: enough for a median, and for two traced and two untraced
// rounds in a traced run.
const minRounds = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "loginfailures, mixed or ingest")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	threads := flag.Int("threads", runtime.NumCPU(), "scheduler threads")
	spans := flag.String("spans", "", "file the traced run writes its spans to")
	flag.Parse()
	if *threads < 1 || *threads > runtime.NumCPU() {
		fail("--threads must be between 1 and %d", runtime.NumCPU())
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	w, err := newWorkload(*name, *seed, *threads)
	if err != nil {
		fail("%v", err)
	}
	hr, _ := json.Marshal(host(*threads)) // strings and ints: cannot fail
	fmt.Printf("host %s\n", hr)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, runErr := run(w, tr, time.Duration(*seconds*float64(time.Second)))
	if err := tr.write(*spans); err != nil {
		fail("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(out))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", runErr)
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

func newWorkload(name string, seed uint64, threads int) (workload, error) {
	switch name {
	case "loginfailures":
		return newLoginFailures(seed, threads, logLines), nil
	case "mixed":
		return &mixed{seed: seed, threads: threads, tuples: mixedTuples}, nil
	case "ingest":
		return &ingestLoad{seed: seed, threads: threads, conns: threads, tuples: ingestTuples}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (loginfailures, mixed, ingest)", name)
}

// run makes warm-up rounds for the first tenth of d (at least one),
// then measured rounds until the run has lasted d and made at least
// minRounds. Every round's output is checked, the warm-up's too. With a
// tracer, odd rounds record spans.
func run(w workload, tr *tracer, d time.Duration) (result, error) {
	floor := 0.0
	if tr != nil {
		floor = timerFloor(min(d, time.Second))
	}
	start := time.Now()
	res := result{Correct: true}
	var rounds []roundStats
	var traced []bool
	var per []map[string]float64
	for i := 0; ; i++ {
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
		}
		warm := i == 0 || time.Since(start) < d/10
		rs := w.round(rt, uint64(i))
		res.Attempted += rs.records
		res.Failed += rs.failed
		if rs.err != nil {
			res.Correct = false
			res.Metrics = map[string]metric{}
			return res, fmt.Errorf("round %d: %w", i, rs.err)
		}
		m := e2e(rs)
		fmt.Fprintf(os.Stderr, "round %d warm=%t traced=%t: %.0f records/s, p50 %.3f ms, p99 %.3f ms, %.3f us/record, setup %.2f ms, heap %.1f MB, steal %.1f%%\n",
			i, warm, rt != nil, m["throughput_tps"], m["latency_p50_ms"], m["latency_p99_ms"], m["cpu_us_per_tuple"], 1e3*m["setup_s"], m["heap_peak_mb"], 100*rs.ph.stealShare)
		if warm {
			continue
		}
		rs.latency = nil // reduced to m; keeping it would grow the heap run by run
		rounds = append(rounds, rs)
		traced = append(traced, rt != nil)
		per = append(per, m)
		if len(rounds) >= minRounds && time.Since(start) >= d {
			break
		}
	}
	if tr == nil {
		res.Metrics = endToEnd(medians(per))
	} else {
		res.Metrics = perLayer(rounds, per, traced)
		res.Metrics["gen.late_p99_ms"] = metric{floor, layerUnits["gen.late_p99_ms"]}
	}
	return res, nil
}

// e2e reduces one round to its end-to-end metrics. Every workload
// offers its input at maximum rate, so every CPU is busy and time the
// hypervisor steals from the machine stretches the round's timeline:
// throughput and latency are taken on the share it did not steal.
func e2e(rs roundStats) map[string]float64 {
	recs := float64(rs.records)
	avail := 1 - rs.ph.stealShare
	return map[string]float64{
		"throughput_tps":   recs / (rs.elapsed.Seconds() * avail),
		"latency_p50_ms":   quantile(rs.latency, 0.50) * avail,
		"latency_p99_ms":   quantile(rs.latency, 0.99) * avail,
		"cpu_us_per_tuple": float64(rs.cpu) / 1e3 / recs,
		"setup_s":          rs.setup.Seconds(),
		"heap_peak_mb":     float64(rs.ph.heapPeak-min(rs.heapBase, rs.ph.heapPeak)) / (1 << 20),
		"host.steal_pct":   100 * rs.ph.stealShare,
	}
}

var e2eUnits = map[string]string{
	"throughput_tps":   "1/s",
	"latency_p50_ms":   "ms",
	"latency_p99_ms":   "ms",
	"cpu_us_per_tuple": "us",
	"setup_s":          "s",
	"heap_peak_mb":     "MB",
}

// medians reduces each metric to its median over rounds.
func medians(rounds []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(rounds) == 0 {
		return out
	}
	for k := range rounds[0] {
		xs := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			if v, ok := r[k]; ok {
				xs = append(xs, v)
			}
		}
		out[k] = median(xs)
	}
	return out
}

func endToEnd(m map[string]float64) map[string]metric {
	out := map[string]metric{}
	for k, unit := range e2eUnits {
		out[k] = metric{finite(m[k]), unit}
	}
	return out
}

// layerUnits lists every per-layer metric with its unit. A metric whose
// layer a workload does not exercise reads 0 there.
var layerUnits = map[string]string{
	"spl.compile_ms":                     "ms",
	"spl.vm_operators":                   "count",
	"pe.new_ms":                          "ms",
	"pe.drain_ms":                        "ms",
	"sched.invocations_per_tuple":        "count/tuple",
	"sched.reschedules_per_ktuple":       "count/ktuple",
	"sched.steals_per_ktuple":            "count/ktuple",
	"sched.chain_tuples_per_tuple":       "count/tuple",
	"sched.chain_lock_misses_per_ktuple": "count/ktuple",
	"sched.find_failures_per_ktuple":     "count/ktuple",
	"sched.transit_p50_ms":               "ms",
	"sched.transit_p99_ms":               "ms",
	"vm.fused_tuples_per_tuple":          "count/tuple",
	"vm.vec_rows_per_tuple":              "count/tuple",
	"vm.fallbacks_per_ktuple":            "count/ktuple",
	"ingest.admit_p50_ms":                "ms",
	"ingest.flush_us":                    "us",
	"gen.late_p99_ms":                    "ms",
	"gc.alloc_bytes_per_tuple":           "B/tuple",
	"gc.cycles_per_mtuple":               "count/Mtuple",
	"gc.pause_ms":                        "ms/s",
	"trace.overhead_pct":                 "%",
	"trace.latency_gap_pct":              "%",
	"host.steal_pct":                     "%",
}

// perLayer derives the per-layer metrics: counters summed over every
// measured round, layer times as medians over the traced rounds, and
// the tracing overhead as the throughput the traced rounds lose against
// the untraced ones.
func perLayer(rounds []roundStats, e2es []map[string]float64, traced []bool) map[string]metric {
	var recs, exec, alloc, cycles float64
	var pause, elapsed time.Duration
	var st pe.SchedStats
	var on, off, layers []map[string]float64
	for i, rs := range rounds {
		recs += float64(rs.records)
		exec += float64(rs.executed)
		alloc += float64(rs.ph.allocBytes)
		cycles += float64(rs.ph.gcCycles)
		pause += rs.ph.gcPause
		elapsed += rs.ph.elapsed
		s := rs.sched
		st.Reschedules += s.Reschedules
		st.FindFailures += s.FindFailures
		st.Contention.Steal += s.Contention.Steal
		st.Chain.Tuples += s.Chain.Tuples
		st.Chain.LockMisses += s.Chain.LockMisses
		st.VM.FusedTuples += s.VM.FusedTuples
		st.VM.VecRows += s.VM.VecRows
		st.VM.Fallbacks += s.VM.Fallbacks
		if traced[i] {
			on = append(on, e2es[i])
			layers = append(layers, rs.layers)
		} else {
			off = append(off, e2es[i])
		}
	}
	v := medians(layers)
	for k := range layerUnits {
		if _, ok := v[k]; !ok {
			v[k] = 0
		}
	}
	v["spl.vm_operators"] = float64(rounds[len(rounds)-1].vmOps)
	v["sched.invocations_per_tuple"] = exec / recs
	v["sched.reschedules_per_ktuple"] = 1e3 * float64(st.Reschedules) / recs
	v["sched.steals_per_ktuple"] = 1e3 * float64(st.Contention.Steal) / recs
	v["sched.chain_tuples_per_tuple"] = float64(st.Chain.Tuples) / recs
	v["sched.chain_lock_misses_per_ktuple"] = 1e3 * float64(st.Chain.LockMisses) / recs
	v["sched.find_failures_per_ktuple"] = 1e3 * float64(st.FindFailures) / recs
	v["vm.fused_tuples_per_tuple"] = float64(st.VM.FusedTuples) / recs
	v["vm.vec_rows_per_tuple"] = float64(st.VM.VecRows) / recs
	v["vm.fallbacks_per_ktuple"] = 1e3 * float64(st.VM.Fallbacks) / recs
	v["gc.alloc_bytes_per_tuple"] = alloc / recs
	v["gc.cycles_per_mtuple"] = 1e6 * cycles / recs
	v["gc.pause_ms"] = ms(pause) / elapsed.Seconds()
	v["host.steal_pct"] = medians(e2es)["host.steal_pct"]
	// Overhead is how much throughput the traced rounds lose.
	if on, off := medians(on)["throughput_tps"], medians(off)["throughput_tps"]; off > 0 {
		v["trace.overhead_pct"] = 100 * (off - on) / off
	}
	out := map[string]metric{}
	for k, unit := range layerUnits {
		out[k] = metric{finite(v[k]), unit}
	}
	return out
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
