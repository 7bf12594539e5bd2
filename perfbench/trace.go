package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, made by the benchmark.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Req    int64  `json:"req"`    // request ID shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; pass the result to end.
func (t *tracer) begin(name string, req, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStats is the per-name aggregate of a trace.
type spanStats struct {
	n     int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus time covered by children
}

func (s spanStats) meanUS() float64 { return meanUS(s.total, s.n) }

func (s spanStats) meanSelfUS() float64 { return meanUS(s.self, s.n) }

// meanUS is d/n in microseconds, 0 for no samples.
func meanUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// summarize aggregates the spans by name. A span's self time is its
// duration minus the union of its children's intervals.
func (t *tracer) summarize() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.n++
		d := time.Duration(s.End - s.Start)
		st.total += d
		st.self += d - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sum, reach := int64(0), parent.Start
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return time.Duration(sum)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
