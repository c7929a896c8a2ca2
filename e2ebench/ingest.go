package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"streams/internal/ingest"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// The ingest workload: one generator goroutine sends a fixed number of
// tuples as fast as TCP takes them, over one connection per scheduler
// thread, to an ingest.Server whose pump feeds a 16-Worker VM chain and
// a sink callback.
const (
	ingestTuples = 200000 // per round
	ingestDepth  = 16
	ingestCost   = 100
	// ingestBatch is how many tuples the generator writes to one
	// connection between flushes.
	ingestBatch = 64
	// ingestContract is every tenant's token-bucket rate and burst in
	// tuples/s: far above what two connections reach, so the bucket is
	// consulted on every tuple and never refuses one.
	ingestContract = 1e7
	// ingestSampleEvery keeps one tuple in this many in the span log.
	ingestSampleEvery = 256
)

// ingestLoad runs the ingest workload. Tuple i goes to connection
// i % conns, one tenant per connection; Words[0] is i and Words[1] is
// payloadWord(seed, i).
type ingestLoad struct {
	seed    uint64
	threads int
	conns   int
	tuples  int
}

func (w *ingestLoad) tenants() []ingest.TenantConfig {
	ts := make([]ingest.TenantConfig, w.conns)
	for c := range ts {
		ts[c] = ingest.TenantConfig{Name: fmt.Sprintf("t%d", c), Rate: ingestContract, Burst: ingestContract, Policy: ingest.Block, Guaranteed: true}
	}
	return ts
}

// checkAdmission counts the tuples the server's admission counters do
// not account for as admitted: any shed, throttled or rejected tuple,
// and any difference between a tenant's admitted count and what was
// sent to it.
func checkAdmission(s ingest.Snapshot, sent []uint64) uint64 {
	bad := s.Totals.Shed + s.Totals.Throttled + s.Totals.Rejected
	if len(s.Tenants) != len(sent) {
		return bad + 1
	}
	for c, ts := range s.Tenants {
		if ts.Admitted > sent[c] {
			bad += ts.Admitted - sent[c]
		} else {
			bad += sent[c] - ts.Admitted
		}
	}
	return bad
}

// genStats is what the load generator measured while sending.
type genStats struct {
	sendAt  []int64       // per tuple, traced: when Send was called
	inCalls time.Duration // traced: time inside Send and Flush
	flushes int
	cpu     time.Duration // the generator thread's own CPU
	err     error
}

// offer sends n tuples round-robin over the connections, flushing each
// after ingestBatch tuples, and closes them. The server's Block policy
// pushes back through TCP, so the generator goes as fast as the program
// takes tuples. It runs on its own OS thread so its CPU can be taken
// out of the program's.
func (w *ingestLoad) offer(clients []*ingest.Client, n int, traced bool) genStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	gs := genStats{}
	if traced {
		gs.sendAt = make([]int64, n)
	}
	call := func(f func() error) error {
		if !traced {
			return f()
		}
		s := time.Now()
		err := f()
		gs.inCalls += time.Since(s)
		return err
	}
	pending := make([]int, len(clients))
	for i := 0; i < n && gs.err == nil; i++ {
		c := i % len(clients)
		if traced {
			gs.sendAt[i] = time.Now().UnixNano()
		}
		t := tuple.NewData(uint64(i), payloadWord(w.seed, uint64(i)))
		if err := call(func() error { return clients[c].Send(t) }); err != nil {
			gs.err = fmt.Errorf("send: %w", err)
		}
		if pending[c]++; pending[c] == ingestBatch || i >= n-len(clients) {
			if err := call(clients[c].Flush); err != nil {
				gs.err = fmt.Errorf("flush: %w", err)
			}
			pending[c] = 0
			gs.flushes++
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil && gs.err == nil {
			gs.err = fmt.Errorf("close: %w", err)
		}
	}
	gs.cpu = threadCPU() - cpu0
	return gs
}

func (w *ingestLoad) round(tr *tracer, id uint64) roundStats {
	n := w.tuples
	rs := roundStats{records: uint64(n), layers: map[string]float64{}}
	chk := newChainChecker(w.seed, w.conns, n)
	arrive := make([]int64, n)
	stamp := make([]int64, n)
	var mu sync.Mutex
	received := 0
	allIn := make(chan struct{})

	rs.heapBase = settle()
	setupStart := time.Now()
	srv, err := ingest.NewServer(ingest.Config{Tenants: w.tenants()})
	if err != nil {
		rs.err = fmt.Errorf("ingest server: %w", err)
		return rs
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		rs.err = fmt.Errorf("listen: %w", err)
		return rs
	}
	listened := time.Now()
	g, snk, err := ops.Topology{Width: 1, Depth: ingestDepth, Cost: ingestCost, VM: true}.BuildWithSource(srv)
	if err != nil {
		srv.Close()
		rs.err = fmt.Errorf("build: %w", err)
		return rs
	}
	snk.OnTuple = func(t tuple.Tuple) {
		now := time.Now().UnixNano()
		mu.Lock()
		defer mu.Unlock()
		chk.observe(&t.Words)
		if i := t.Words[0]; i < uint64(n) {
			arrive[i] = now
			stamp[i] = t.Stamp
		}
		received++
		if received == n {
			close(allIn)
		}
	}
	cfg := pe.Config{Model: pe.Dynamic, Threads: w.threads}
	if tr != nil {
		cfg.Latency = newLatencySeam()
	}
	builtGraph := time.Now()
	p, err := pe.New(g, cfg)
	built := time.Now()
	if err != nil {
		srv.Close()
		rs.err = fmt.Errorf("pe.New: %w", err)
		return rs
	}
	clients := make([]*ingest.Client, w.conns)
	for c := range clients {
		if clients[c], err = ingest.Dial(srv.Addr(), fmt.Sprintf("t%d", c)); err != nil {
			srv.Close()
			rs.err = fmt.Errorf("dial: %w", err)
			return rs
		}
	}
	dialed := time.Now()
	rs.setup = dialed.Sub(setupStart)
	rs.vmOps = vmOperators(g)
	tr.add("ingest.listen", id, id, setupStart, listened)
	tr.add("graph.build", id, id, listened, builtGraph)
	tr.add("pe.new", id, id, builtGraph, built)
	tr.add("ingest.dial", id, id, built, dialed)
	rs.layers["pe.new_ms"] = ms(built.Sub(builtGraph))

	ph := beginPhase()
	if err := p.Start(); err != nil {
		srv.Close()
		rs.err = fmt.Errorf("start: %w", err)
		return rs
	}
	tr.add("pe.start", id, id, ph.start, time.Now())
	gs := w.offer(clients, n, tr != nil)
	sentAll := time.Now()
	if gs.err != nil {
		rs.err = gs.err
	}
	select {
	case <-allIn:
	case <-time.After(30 * time.Second):
	}
	mu.Lock()
	last := time.Now()
	if received == n {
		var l int64
		for _, a := range arrive {
			l = max(l, a)
		}
		last = time.Unix(0, l)
	}
	mu.Unlock()
	rs.ph = ph.end(last)
	rs.cpu, rs.elapsed = rs.ph.cpu-gs.cpu, rs.ph.elapsed
	stopAt := time.Now()
	p.Stop()
	tr.add("pe.drain", id, id, sentAll, last)
	tr.add("pe.stop", id, id, stopAt, time.Now())
	rs.layers["pe.drain_ms"] = ms(last.Sub(sentAll))

	mu.Lock()
	defer mu.Unlock()
	sent := make([]uint64, w.conns)
	for i := 0; i < n; i++ {
		sent[i%w.conns]++
	}
	rs.failed = min(chk.failed()+checkAdmission(srv.Snapshot(), sent), rs.records)
	rs.sched = p.SchedStats()
	rs.executed = p.Executed()
	if err := p.Err(); err != nil {
		rs.err = err
	}

	start := ph.start.UnixNano()
	lat := make([]time.Duration, 0, n)
	for _, a := range arrive {
		if a != 0 {
			lat = append(lat, time.Duration(a-start))
		}
	}
	rs.latency = durationsMs(lat)
	if tr == nil {
		return rs
	}
	// A tuple's time in the system splits at its send and its admission
	// stamp into three stages that add up to its latency: waiting in the
	// generator, admission, and transit through the scheduler.
	queued := make([]time.Duration, 0, n)
	admit := make([]time.Duration, 0, n)
	transit := make([]time.Duration, 0, n)
	for i := range arrive {
		if arrive[i] == 0 || stamp[i] == 0 {
			continue
		}
		queued = append(queued, time.Duration(gs.sendAt[i]-start))
		admit = append(admit, time.Duration(stamp[i]-gs.sendAt[i]))
		transit = append(transit, time.Duration(arrive[i]-stamp[i]))
		if i%ingestSampleEvery == 0 {
			tr.addNs("ingest.admit", uint64(i), id, gs.sendAt[i], stamp[i])
			tr.addNs("sched.transit", uint64(i), id, stamp[i], arrive[i])
		}
	}
	q, a, t := durationsMs(queued), durationsMs(admit), durationsMs(transit)
	rs.layers["ingest.admit_p50_ms"] = quantile(a, 0.50)
	rs.layers["sched.transit_p50_ms"] = quantile(t, 0.50)
	rs.layers["sched.transit_p99_ms"] = quantile(t, 0.99)
	if gs.flushes > 0 {
		rs.layers["ingest.flush_us"] = float64(gs.inCalls) / 1e3 / float64(gs.flushes)
	}
	// Medians need not add up the way the stages do; the gap is what the
	// three stage medians leave of the latency median.
	if p50 := quantile(rs.latency, 0.50); p50 > 0 {
		sum := quantile(q, 0.50) + quantile(a, 0.50) + quantile(t, 0.50)
		rs.layers["trace.latency_gap_pct"] = 100 * (p50 - sum) / p50
	}
	return rs
}
