package main

import (
	"fmt"
	"sync"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// The paper's Fig. 10 mixed graph: Src → Split → 10 chains of 100
// VM-programmed Workers → Snk. At cost 100 a Worker's Spin is short
// enough that moving tuples between operators, not computing, sets the
// rate.
const (
	mixedWidth  = 10
	mixedDepth  = 100
	mixedCost   = 100
	mixedTuples = 40000 // per round; a multiple of mixedWidth
)

// payloadWord derives tuple i's check word from the seed (splitmix64),
// so a corrupted or misrouted payload shows at the sink.
func payloadWord(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chainChecker verifies tuples that a round-robin split spread over
// width chains: Words[0] is the generator's sequence number i, which
// chain i%width carried, and Words[1] is payloadWord(seed, i). Every
// i < n must arrive exactly once, intact, and in increasing order
// within its chain. Callers serialize observe.
type chainChecker struct {
	seed  uint64
	width uint64
	seen  []bool
	last  []int64
	bad   uint64
}

func newChainChecker(seed uint64, width, n int) *chainChecker {
	c := &chainChecker{seed: seed, width: uint64(width), seen: make([]bool, n), last: make([]int64, width)}
	for i := range c.last {
		c.last[i] = -1
	}
	return c
}

func (c *chainChecker) observe(w *[tuple.PayloadWords]uint64) {
	i := w[0]
	if i >= uint64(len(c.seen)) || w[1] != payloadWord(c.seed, i) || c.seen[i] {
		c.bad++
		return
	}
	c.seen[i] = true
	ch := i % c.width
	if int64(i) < c.last[ch] {
		c.bad++
	}
	c.last[ch] = int64(i)
}

// failed returns the records that did not arrive intact exactly once and
// in chain order.
func (c *chainChecker) failed() uint64 {
	missing := uint64(0)
	for _, s := range c.seen {
		if !s {
			missing++
		}
	}
	return min(max(missing, c.bad), uint64(len(c.seen)))
}

// checkWorkerCounts counts the Workers whose execution count is not
// exactly want.
func checkWorkerCounts(counts map[string]uint64, width, depth int, want uint64) uint64 {
	bad := uint64(0)
	for w := 1; w <= width; w++ {
		for d := 1; d <= depth; d++ {
			if counts[fmt.Sprintf("W%d,%d", w, d)] != want {
				bad++
			}
		}
	}
	return bad
}

// vmOperators counts the graph's operators that carry a bytecode
// program.
func vmOperators(g *graph.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		if p, ok := nd.Op.(vm.Programmed); ok && p.VMProgram() != nil {
			n++
		}
	}
	return n
}

// mixed runs the Fig. 10 graph over a fixed number of generated tuples.
type mixed struct {
	seed    uint64
	threads int
	tuples  int
}

func (m *mixed) round(tr *tracer, id uint64) roundStats {
	n := m.tuples
	rs := roundStats{records: uint64(n), layers: map[string]float64{}}
	chk := newChainChecker(m.seed, mixedWidth, n)
	arrivals := make([]int64, 0, n)
	var transit []time.Duration
	var lastSubmit time.Time
	gen := &ops.Generator{Limit: uint64(n), Payload: func(i uint64) tuple.Tuple {
		if tr != nil && i == uint64(n)-1 {
			lastSubmit = time.Now()
		}
		return tuple.NewData(i, payloadWord(m.seed, i))
	}}
	var mu sync.Mutex

	rs.heapBase = settle()
	setupStart := time.Now()
	g, snk, err := ops.Topology{Width: mixedWidth, Depth: mixedDepth, Cost: mixedCost, VM: true}.BuildWithSource(gen)
	builtGraph := time.Now()
	if err != nil {
		rs.err = fmt.Errorf("build: %w", err)
		return rs
	}
	snk.OnTuple = func(t tuple.Tuple) {
		now := time.Now().UnixNano()
		mu.Lock()
		chk.observe(&t.Words)
		arrivals = append(arrivals, now)
		if tr != nil && t.Stamp != 0 {
			transit = append(transit, time.Duration(now-t.Stamp))
			if t.Words[0]%256 == 0 {
				tr.addNs("sched.transit", t.Words[0], id, t.Stamp, now)
			}
		}
		mu.Unlock()
	}
	cfg := pe.Config{Model: pe.Dynamic, Threads: m.threads}
	if tr != nil {
		cfg.Latency = newLatencySeam()
	}
	p, err := pe.New(g, cfg)
	built := time.Now()
	if err != nil {
		rs.err = fmt.Errorf("pe.New: %w", err)
		return rs
	}
	rs.setup = built.Sub(setupStart)
	rs.vmOps = vmOperators(g)
	tr.add("graph.build", id, id, setupStart, builtGraph)
	tr.add("pe.new", id, id, builtGraph, built)
	rs.layers["pe.new_ms"] = ms(built.Sub(builtGraph))

	ph := beginPhase()
	if err := p.Start(); err != nil {
		rs.err = fmt.Errorf("start: %w", err)
		return rs
	}
	tr.add("pe.start", id, id, ph.start, time.Now())
	if err := p.WaitTimeout(drainDeadline); err != nil {
		rs.err = err
		return rs
	}
	done := time.Now()
	rs.ph = ph.end(done)
	rs.cpu, rs.elapsed = rs.ph.cpu, rs.ph.elapsed
	if tr != nil && !lastSubmit.IsZero() {
		tr.add("pe.drain", id, id, lastSubmit, done)
		rs.layers["pe.drain_ms"] = ms(done.Sub(lastSubmit))
	}
	mu.Lock()
	defer mu.Unlock()
	rs.latency = make([]float64, len(arrivals))
	for i, a := range arrivals {
		rs.latency[i] = float64(a-ph.start.UnixNano()) / 1e6
	}
	if len(transit) > 0 {
		t := durationsMs(transit)
		rs.layers["sched.transit_p50_ms"] = quantile(t, 0.50)
		rs.layers["sched.transit_p99_ms"] = quantile(t, 0.99)
	}
	rs.sched = p.SchedStats()
	rs.executed = p.Executed()
	bad := checkWorkerCounts(p.OperatorCounts(), mixedWidth, mixedDepth, uint64(n/mixedWidth))
	rs.failed = min(chk.failed()+bad, rs.records)
	return rs
}
