package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"streams/internal/pe"
	"streams/internal/spl"
)

// loginFailuresProgram is the paper's Figure 1 application as in
// examples/loginfailures: Lines → @parallel(7) parse → Filter →
// @parallel(4) parseMsg → FileSink.
const loginFailuresProgram = `
composite LoginFailures(output Failures) {
  type
    LogLine = timestamp time, rstring hostname, rstring srvc, rstring msg;
    Failure = timestamp time, rstring uid, rstring euid,
              rstring tty, rstring rhost, rstring user;
  graph
    stream<rstring line> Lines = FileSource() {
      param format: line;
            file: "/var/log/messages";
    }
    @parallel(width=7)
    stream<LogLine> ParsedLines = Custom(Lines) {
      logic onTuple Lines: {
        list<rstring> tokens = tokenize(line, " ", false);
        rstring date = makeDate(tokens[1]);
        rstring time = makeTime(tokens[2]);
        timestamp t = makeTimestamp(date, time);
        submit({time = t, hostname = tokens[3],
                srvc = tokens[4], msg = flatten(tokens[5:])},
               ParsedLines);
      }
    }
    stream<LogLine> FailuresRaw = Filter(ParsedLines) {
      param filter:
        findFirst(srvc, "sshd", 0) != -1 &&
        findFirst(msg, "authentication failure", 0) != -1;
    }
    @parallel(width=4)
    stream<Failure> Failures = Custom(FailuresRaw) {
      logic onTuple FailuresRaw: {
        list<rstring> tokens = parseMsg(msg);
        submit({time = FailuresRaw.time,
                uid = tokens[0], euid = tokens[1],
                tty = tokens[2], rhost = tokens[3],
                user = size(tokens) == 5 ? tokens[4] : ""},
               Failures);
      }
    }
}

@threading(model=dynamic)
composite Main {
  graph
    stream<Failure> Failures = LoginFailures() {}
    () as Sink = FileSink(Failures) {
      param file: "failures.txt";
    }
}
`

// logLines is the number of syslog lines one round reads.
const logLines = 100000

// lineKind is one class of the synthetic syslog's line mix. The weights
// set the Filter's selectivity: 40% of lines are sshd authentication
// failures and pass; the rest, including a su failure that names the
// same text under another service, are dropped.
type lineKind struct {
	weight int
	format func(r *rand.Rand, b *strings.Builder)
}

var (
	months = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	hosts  = []string{"web1", "web2", "db1", "bastion", "cache3"}
	users  = []string{"root", "admin", "oracle", "test", "guest", "deploy", "ubuntu", "pi"}
	ttys   = []string{"ssh", "sshd", "pts/0"}
)

func syslogHead(r *rand.Rand, b *strings.Builder, srvc string) {
	// %2d pads single-digit days with a space, as syslog does; the
	// program's tokenizer skips the empty token.
	fmt.Fprintf(b, "%s %2d %02d:%02d:%02d %s %s[%d]: ", months[r.IntN(12)], 1+r.IntN(28),
		r.IntN(24), r.IntN(60), r.IntN(60), hosts[r.IntN(len(hosts))], srvc, 100+r.IntN(60000))
}

func rhost(r *rand.Rand) string {
	return fmt.Sprintf("%d.%d.%d.%d", 1+r.IntN(223), r.IntN(256), r.IntN(256), 1+r.IntN(254))
}

var lineKinds = []lineKind{
	{30, func(r *rand.Rand, b *strings.Builder) { // failure naming a user
		syslogHead(r, b, "sshd")
		fmt.Fprintf(b, "pam_unix(sshd:auth): authentication failure; logname= uid=%d euid=%d tty=%s ruser= rhost=%s user=%s",
			r.IntN(1000), r.IntN(1000), ttys[r.IntN(len(ttys))], rhost(r), users[r.IntN(len(users))])
	}},
	{5, func(r *rand.Rand, b *strings.Builder) { // failure, no user key
		syslogHead(r, b, "sshd")
		fmt.Fprintf(b, "pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=%s ruser= rhost=%s",
			ttys[r.IntN(len(ttys))], rhost(r))
	}},
	{5, func(r *rand.Rand, b *strings.Builder) { // failure, empty user
		syslogHead(r, b, "sshd")
		fmt.Fprintf(b, "pam_unix(sshd:auth): authentication failure; logname= uid=0 euid=0 tty=ssh ruser= rhost=%s user=", rhost(r))
	}},
	{15, func(r *rand.Rand, b *strings.Builder) { // sshd, not a failure
		syslogHead(r, b, "sshd")
		fmt.Fprintf(b, "Accepted publickey for %s from %s port %d ssh2", users[r.IntN(len(users))], rhost(r), 1024+r.IntN(60000))
	}},
	{5, func(r *rand.Rand, b *strings.Builder) { // failure text, other service
		syslogHead(r, b, "su")
		fmt.Fprintf(b, "pam_unix(su:auth): authentication failure; logname=%s uid=1000 euid=0 tty=pts/1 ruser=%s rhost= user=root",
			users[r.IntN(len(users))], users[r.IntN(len(users))])
	}},
	{25, func(r *rand.Rand, b *strings.Builder) { // cron noise
		syslogHead(r, b, "CRON")
		fmt.Fprintf(b, "(%s) CMD (run-parts /etc/cron.hourly)", users[r.IntN(len(users))])
	}},
	{15, func(r *rand.Rand, b *strings.Builder) { // kernel noise
		syslogHead(r, b, "kernel")
		fmt.Fprintf(b, "[%d.%06d] eth0: link up, %d Mbps, full duplex", r.IntN(100000), r.IntN(1000000), []int{100, 1000, 10000}[r.IntN(3)])
	}},
}

// syntheticLog generates n syslog lines from seed.
func syntheticLog(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x5eed10c))
	total := 0
	for _, k := range lineKinds {
		total += k.weight
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		x := r.IntN(total)
		for _, k := range lineKinds {
			if x < k.weight {
				k.format(r, &b)
				break
			}
			x -= k.weight
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// expectedFailures is the reference for the program's output, derived
// from the log by a parser that shares no code with the SPL runtime:
// one "day time,uid,euid,tty,rhost,user" record per sshd line that
// reports an authentication failure, user empty when absent.
func expectedFailures(log []byte) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(string(log), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || !strings.Contains(f[4], "sshd") {
			continue
		}
		msg := strings.Join(f[5:], " ")
		if !strings.Contains(msg, "authentication failure") {
			continue
		}
		kv := map[string]string{}
		for _, tok := range f[5:] {
			if k, v, ok := strings.Cut(tok, "="); ok && k != "" {
				kv[k] = v
			}
		}
		out = append(out, strings.Join([]string{f[1] + " " + f[2], kv["uid"], kv["euid"], kv["tty"], kv["rhost"], kv["user"]}, ","))
	}
	return out
}

// checkMultiset counts the records by which got differs from want as
// multisets: each missing, extra or altered record counts once (an
// altered record is one missing plus one extra, counted as one).
func checkMultiset(want []string, got []string) uint64 {
	w := slices.Clone(want)
	g := slices.Clone(got)
	slices.Sort(w)
	slices.Sort(g)
	var missing, extra uint64
	i, j := 0, 0
	for i < len(w) || j < len(g) {
		switch {
		case j == len(g) || (i < len(w) && w[i] < g[j]):
			missing++
			i++
		case i == len(w) || g[j] < w[i]:
			extra++
			j++
		default:
			i++
			j++
		}
	}
	return max(missing, extra)
}

// sinkWriter is the FileSink's in-memory file. It stamps every write
// with the number of records it completed, which gives each record the
// time its result became visible.
type sinkWriter struct {
	tr    *tracer
	round uint64

	mu     sync.Mutex
	buf    bytes.Buffer
	writes []time.Time
	counts []int
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	s := time.Now()
	w.mu.Lock()
	n, _ := w.buf.Write(p)
	w.writes = append(w.writes, s)
	w.counts = append(w.counts, bytes.Count(p, []byte{'\n'}))
	w.mu.Unlock()
	w.tr.add("spl.sink.write", w.round, w.round, s, time.Now())
	return n, nil
}

func (w *sinkWriter) Close() error { return nil }

// recordLatencies returns, sorted, each record's time from start to the
// write that carried it, in milliseconds.
func (w *sinkWriter) recordLatencies(start time.Time) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []float64
	for i, at := range w.writes {
		ms := float64(at.Sub(start)) / 1e6
		for k := 0; k < w.counts[i]; k++ {
			out = append(out, ms)
		}
	}
	slices.Sort(out)
	return out
}

// tracedReader times every read the FileSource makes and notes when the
// input is exhausted.
type tracedReader struct {
	r     io.Reader
	tr    *tracer
	round uint64
	eof   time.Time
}

func (t *tracedReader) Read(p []byte) (int, error) {
	s := time.Now()
	n, err := t.r.Read(p)
	e := time.Now()
	t.tr.add("spl.source.read", t.round, t.round, s, e)
	if err == io.EOF && t.eof.IsZero() {
		t.eof = e
	}
	return n, err
}

func (t *tracedReader) Close() error { return nil }

// loginFailures runs the Figure 1 program over a seeded syslog.
type loginFailures struct {
	threads int
	log     []byte
	want    []string
}

func newLoginFailures(seed uint64, threads, lines int) *loginFailures {
	log := syntheticLog(seed, lines)
	return &loginFailures{threads: threads, log: log, want: expectedFailures(log)}
}

func (lf *loginFailures) round(tr *tracer, id uint64) roundStats {
	rs := roundStats{records: uint64(bytes.Count(lf.log, []byte{'\n'})), layers: map[string]float64{}}
	src := &tracedReader{r: bytes.NewReader(lf.log), tr: tr, round: id}
	sink := &sinkWriter{tr: tr, round: id}
	opened := 0
	opts := spl.Options{
		ReaderFor: func(string) (io.ReadCloser, error) { return src, nil },
		WriterFor: func(string) (io.WriteCloser, error) { opened++; return sink, nil },
	}

	rs.heapBase = settle()
	setupStart := time.Now()
	c, err := spl.Compile(loginFailuresProgram, opts)
	compiled := time.Now()
	if err != nil {
		rs.err = fmt.Errorf("compile: %w", err)
		return rs
	}
	cfg := pe.Config{Model: pe.Dynamic, Threads: lf.threads}
	p, err := pe.New(c.Graph, cfg)
	built := time.Now()
	if err != nil {
		rs.err = fmt.Errorf("pe.New: %w", err)
		return rs
	}
	rs.setup = built.Sub(setupStart)
	rs.vmOps = vmOperators(c.Graph)
	tr.add("spl.compile", id, id, setupStart, compiled)
	tr.add("pe.new", id, id, compiled, built)
	rs.layers["spl.compile_ms"] = ms(compiled.Sub(setupStart))
	rs.layers["pe.new_ms"] = ms(built.Sub(compiled))

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
	if tr != nil && !src.eof.IsZero() {
		tr.add("pe.drain", id, id, src.eof, done)
		rs.layers["pe.drain_ms"] = ms(done.Sub(src.eof))
	}
	rs.latency = sink.recordLatencies(ph.start)
	rs.sched = p.SchedStats()
	rs.executed = p.Executed()
	if err := c.Sinks["Sink"].Err(); err != nil {
		rs.err = fmt.Errorf("sink: %w", err)
	}
	if opened != 1 {
		rs.err = fmt.Errorf("sink opened %d times, want 1", opened)
	}
	got := strings.Split(strings.TrimSuffix(sink.buf.String(), "\n"), "\n")
	if sink.buf.Len() == 0 {
		got = nil
	}
	rs.failed = checkMultiset(lf.want, got)
	return rs
}
