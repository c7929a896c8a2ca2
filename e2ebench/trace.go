package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the traced run recorded around a call into a
// layer. Spans of one tuple share its generator sequence number as ID;
// spans of one round have the round as parent.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted but
// not kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced rounds call the same code.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records one span; start and end are absolute times.
func (t *tracer) add(name string, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.addNs(name, id, parent, start.UnixNano(), end.UnixNano())
}

// addNs records one span from UnixNano instants.
func (t *tracer) addNs(name string, id, parent uint64, start, end int64) {
	if t == nil {
		return
	}
	o := t.origin.UnixNano()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start - o, End: end - o})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write saves the span log as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("span log: %w", err)
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	return f.Close()
}
