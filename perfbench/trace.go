package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call of the traced replay. Spans of one campaign
// share a trace name and form one rooted tree; they stay in memory and
// are written out when the run ends.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for the trace's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(trace string, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return time.Duration(now - t.spans[id-1].Start)
}

// record adds an already-finished span.
func (t *tracer) record(trace string, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// time runs fn as a span.
func (t *tracer) time(trace string, parent int, name string, fn func()) time.Duration {
	id := t.begin(trace, parent, name)
	fn()
	return t.end(id)
}

// durations returns the durations of every span named name, in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return out
}

// checkTrees verifies that the spans of every trace form one rooted
// tree: exactly one root, every span closed, every parent in the same
// trace and covering its child's interval. With every child inside its
// parent, no self time can be negative.
func checkTrees(spans []span) error {
	byID := make(map[int]span, len(spans))
	roots := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Trace]++
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s in %s never closed", s.ID, s.Name, s.Trace)
		}
		if roots[s.Trace] != 1 {
			return fmt.Errorf("trace %s has %d roots", s.Trace, roots[s.Trace])
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Trace != s.Trace {
				return fmt.Errorf("span %d %s in %s has a parent outside its trace", s.ID, s.Name, s.Trace)
			}
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %s in %s lies outside its parent %s", s.ID, s.Name, s.Trace, p.Name)
			}
		}
	}
	return nil
}

// summarize prints self time per span name, fails spans that do not
// form one rooted tree per trace, and writes every span to path as
// NDJSON.
func (t *tracer) summarize(path string, ops *tally) error {
	self := selfTimes(t.spans)
	type agg struct {
		n          int
		total, own time.Duration
	}
	by := make(map[string]*agg)
	var order []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.own += self[i]
	}
	sort.Slice(order, func(a, b int) bool { return by[order[a]].own > by[order[b]].own })
	fmt.Println("traced replay, self time by span:")
	fmt.Printf("  %-26s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/call")
	for _, name := range order {
		a := by[name]
		fmt.Printf("  %-26s %8d %12.2f %12.2f %12.2f\n", name, a.n, ms(a.total), ms(a.own), us(a.own)/float64(a.n))
	}
	ops.check(checkTrees(t.spans) == nil, fmt.Sprint(checkTrees(t.spans)))

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans written to %s (%d spans)\n", path, len(t.spans))
	return f.Close()
}
