package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples collects named timing samples, stamped with when they were
// taken, from concurrent clients.
type samples struct {
	mu sync.Mutex
	m  map[string][]sample
}

type sample struct {
	at time.Time
	v  float64
}

func newSamples() *samples { return &samples{m: make(map[string][]sample)} }

func (s *samples) add(name string, v float64) {
	now := time.Now()
	s.mu.Lock()
	s.m[name] = append(s.m[name], sample{now, v})
	s.mu.Unlock()
}

// get returns the values of the named samples.
func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.m[name]))
	for i, x := range s.m[name] {
		out[i] = x.v
	}
	return out
}

// minSegmentSamples is the fewest samples a segment needs to give a
// quantile of its own.
const minSegmentSamples = 10

// segmentQuantile returns the median over the window's segments of each
// segment's q-quantile of the named samples, so a burst of outside load
// that slows a minority of segments does not move the result. Segments
// with too few samples are skipped; with none left it falls back to the
// quantile over every sample.
func (s *samples) segmentQuantile(name string, q float64, bounds []boundary) float64 {
	s.mu.Lock()
	all := append([]sample(nil), s.m[name]...)
	s.mu.Unlock()
	var per []float64
	for i := 1; i < len(bounds); i++ {
		var xs []float64
		for _, x := range all {
			if !x.at.Before(bounds[i-1].at) && x.at.Before(bounds[i].at) {
				xs = append(xs, x.v)
			}
		}
		if len(xs) >= minSegmentSamples {
			per = append(per, quantile(xs, q))
		}
	}
	if len(per) == 0 {
		return quantile(s.get(name), q)
	}
	return median(per)
}

// tally counts operations attempted and failed, keeping the first few
// failure messages for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(msg string) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, msg)
	}
	t.mu.Unlock()
}

// check counts one verification as attempted, failing it with msg
// when cond is false.
func (t *tally) check(cond bool, msg string) {
	if cond {
		t.ok()
	} else {
		t.fail(msg)
	}
}
