package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/tuple"
)

func TestExpectedFailures(t *testing.T) {
	log := strings.Join([]string{
		"Jun  4 03:04:05 web1 sshd[4001]: pam_unix(sshd:auth): authentication failure; logname= uid=7 euid=0 tty=ssh ruser= rhost=10.0.0.1 user=bob",
		"Jun 14 03:04:06 web1 sshd[4002]: pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=10.0.0.2",
		"Jun 14 03:04:07 web1 sshd[4003]: pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=10.0.0.3 user=",
		"Jun 14 03:04:08 web1 su[4004]: pam_unix(su:auth): authentication failure; logname=x uid=1000 euid=0 tty=pts/1 ruser=x rhost= user=root",
		"Jun 14 03:04:09 web1 sshd[4005]: Accepted publickey for deploy from 10.0.0.5 port 22 ssh2",
		"Jun 14 03:04:10 web1 CRON[4006]: (root) CMD (run-parts /etc/cron.hourly)",
	}, "\n") + "\n"
	want := []string{
		"4 03:04:05,7,0,ssh,10.0.0.1,bob",
		"14 03:04:06,0,0,ssh,10.0.0.2,",
		"14 03:04:07,0,0,ssh,10.0.0.3,",
	}
	if got := expectedFailures([]byte(log)); !slices.Equal(got, want) {
		t.Fatalf("expectedFailures = %q, want %q", got, want)
	}
}

func TestCheckMultiset(t *testing.T) {
	want := []string{"a,1", "b,2", "b,2", "c,3"}
	cases := []struct {
		name string
		got  []string
		bad  uint64
	}{
		{"reordered", []string{"c,3", "b,2", "a,1", "b,2"}, 0},
		{"dropped", []string{"a,1", "b,2", "c,3"}, 1},
		{"duplicated", []string{"a,1", "b,2", "b,2", "c,3", "c,3"}, 1},
		{"corrupted", []string{"a,1", "b,2", "b,9", "c,3"}, 1},
		{"empty", nil, 4},
	}
	for _, c := range cases {
		if bad := checkMultiset(want, c.got); bad != c.bad {
			t.Errorf("%s: checkMultiset = %d, want %d", c.name, bad, c.bad)
		}
	}
}

// chainRecords returns tuples 0..n-1 in the order a round-robin split
// over width chains may deliver them: all of chain 0, then chain 1, ...
func chainRecords(seed uint64, width, n int) [][tuple.PayloadWords]uint64 {
	var out [][tuple.PayloadWords]uint64
	for c := 0; c < width; c++ {
		for i := c; i < n; i += width {
			var w [tuple.PayloadWords]uint64
			w[0], w[1] = uint64(i), payloadWord(seed, uint64(i))
			out = append(out, w)
		}
	}
	return out
}

func TestChainChecker(t *testing.T) {
	const seed, width, n = 7, 3, 30
	cases := []struct {
		name   string
		mutate func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64
		bad    bool
	}{
		{"intact", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { return r }, false},
		{"dropped", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { return append(r[:4:4], r[5:]...) }, true},
		{"duplicated", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { return append(r, r[3]) }, true},
		{"corrupted", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { r[6][1]++; return r }, true},
		{"reordered in chain", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { r[1], r[2] = r[2], r[1]; return r }, true},
		{"interleaved chains", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 {
			slices.SortFunc(r, func(a, b [tuple.PayloadWords]uint64) int { return int(a[0]) - int(b[0]) })
			return r
		}, false},
		{"out of range", func(r [][tuple.PayloadWords]uint64) [][tuple.PayloadWords]uint64 { r[0][0] = n; return r }, true},
	}
	for _, c := range cases {
		chk := newChainChecker(seed, width, n)
		for _, w := range c.mutate(chainRecords(seed, width, n)) {
			chk.observe(&w)
		}
		if got := chk.failed() > 0; got != c.bad {
			t.Errorf("%s: failed() = %d, want failures: %t", c.name, chk.failed(), c.bad)
		}
	}
}

func TestCheckWorkerCounts(t *testing.T) {
	counts := map[string]uint64{"W1,1": 5, "W1,2": 5, "W2,1": 5, "W2,2": 5, "Snk": 10}
	if bad := checkWorkerCounts(counts, 2, 2, 5); bad != 0 {
		t.Fatalf("exact counts: %d bad", bad)
	}
	counts["W2,1"] = 4
	counts["W1,2"] = 6
	if bad := checkWorkerCounts(counts, 2, 2, 5); bad != 2 {
		t.Fatalf("one short, one over: %d bad, want 2", bad)
	}
}

func TestCheckAdmission(t *testing.T) {
	snap := func(shed, throttled, rejected uint64, admitted ...uint64) ingest.Snapshot {
		s := ingest.Snapshot{Totals: metrics.IngestSnapshot{Shed: shed, Throttled: throttled, Rejected: rejected}}
		for _, a := range admitted {
			s.Tenants = append(s.Tenants, ingest.TenantSnapshot{Admitted: a})
		}
		return s
	}
	sent := []uint64{10, 10}
	cases := []struct {
		name string
		s    ingest.Snapshot
		bad  uint64
	}{
		{"all admitted", snap(0, 0, 0, 10, 10), 0},
		{"one lost", snap(0, 0, 0, 10, 9), 1},
		{"one extra", snap(0, 0, 0, 11, 10), 1},
		{"shed", snap(1, 0, 0, 9, 10), 2},
		{"throttled", snap(0, 2, 0, 10, 10), 2},
		{"rejected", snap(0, 0, 1, 10, 10), 1},
		{"tenant missing", snap(0, 0, 0, 10), 1},
	}
	for _, c := range cases {
		if bad := checkAdmission(c.s, sent); bad != c.bad {
			t.Errorf("%s: checkAdmission = %d, want %d", c.name, bad, c.bad)
		}
	}
}

// tinyWorkloads are each workload cut down to a fraction of a second.
func tinyWorkloads() map[string]workload {
	return map[string]workload{
		"loginfailures": newLoginFailures(3, 2, 500),
		"mixed":         &mixed{seed: 3, threads: 2, tuples: 10 * mixedWidth},
		"ingest":        &ingestLoad{seed: 3, threads: 2, conns: 2, tuples: 500},
	}
}

func TestTinyRuns(t *testing.T) {
	for name, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			want := e2eUnits
			if traced {
				tr, want = newTracer(), layerUnits
			}
			res, err := run(w, tr, time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for k := range want {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("%s traced=%t: metric %s missing", name, traced, k)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestLoginFailuresRejectsWrongOutput runs the program against a
// reference with one record removed: the extra output record must be
// counted as a failure.
func TestLoginFailuresRejectsWrongOutput(t *testing.T) {
	lf := newLoginFailures(4, 2, 300)
	lf.want = lf.want[1:]
	if rs := lf.round(nil, 0); rs.err != nil || rs.failed != 1 {
		t.Fatalf("round: err=%v failed=%d, want one failed record", rs.err, rs.failed)
	}
}
