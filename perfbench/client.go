package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twmarch/internal/campaign"
)

// newConnClient returns an HTTP client confined to one connection, so
// each benchmark client is one closed-loop connection to the daemon.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func get(ctx context.Context, hc *http.Client, u string) ([]byte, int, error) {
	return do(ctx, hc, http.MethodGet, u, nil)
}

func do(ctx context.Context, hc *http.Client, method, u string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// queryRecord is one record of a GET /campaigns/query page.
type queryRecord struct {
	ID       string `json:"id"`
	Cell     int    `json:"cell"`
	Test     string `json:"test"`
	Width    int    `json:"width"`
	Words    int    `json:"words"`
	Scheme   string `json:"scheme"`
	Mode     string `json:"mode"`
	Faults   int    `json:"faults"`
	Detected int    `json:"detected"`
	TCM      int    `json:"tcm"`
	TCP      int    `json:"tcp"`
}

type queryPage struct {
	Results   []queryRecord `json:"results"`
	NextToken string        `json:"next_token"`
	Scanned   int           `json:"scanned"`
}

// settled is what one closed-loop campaign left for verification.
type settled struct {
	cells  int
	events int
	// served is the canonical aggregate /results served, decoded only
	// after the window so the load generator spends little CPU in it.
	served []byte
	// own is the campaign's own result set read back through
	// GET /campaigns/query.
	own []queryRecord
}

// loadGen is the load generator's view of one run: where to send
// requests and where to record what happened.
type loadGen struct {
	base string
	lat  *samples
	ops  *tally
	// queryLat names the samples own-job query pages land in; empty
	// when the workload's query latency comes from the reader instead.
	queryLat string
	// progress, when set, receives the time each campaign of the list
	// ends, pacing the reader.
	progress chan time.Time
}

// segments splits a window into equal shares of its cells: each
// boundary records when the share settled and the fleet's CPU time
// then, so a run reports the median over segments and a burst of
// outside load moves one segment rather than the whole run.
type segments struct {
	mu     sync.Mutex
	f      *fleet
	total  int // cells in the list
	n      int // segments
	cells  int // settled so far
	bounds []boundary
	err    error
}

type boundary struct {
	at    time.Time
	cells int
	use   procUsage
}

func newSegments(f *fleet, list []campaign.Spec, n int) (*segments, error) {
	s := &segments{f: f, n: n}
	for _, spec := range list {
		s.total += spec.CellCount()
	}
	return s, s.mark()
}

// mark records a boundary now; callers hold s.mu or own s exclusively.
func (s *segments) mark() error {
	u, err := s.f.usage()
	if err != nil {
		return err
	}
	s.bounds = append(s.bounds, boundary{time.Now(), s.cells, u})
	return nil
}

// settle counts a settled campaign's cells, marking every boundary
// they cross.
func (s *segments) settle(cells int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells += cells
	for len(s.bounds) <= s.n && s.cells*s.n >= len(s.bounds)*s.total && s.err == nil {
		s.err = s.mark()
	}
}

// rates returns each segment's cells per second and fleet CPU per cell.
func (s *segments) rates() (perSec, cpuPerCell []float64) {
	for i := 1; i < len(s.bounds); i++ {
		a, b := s.bounds[i-1], s.bounds[i]
		cells := float64(b.cells - a.cells)
		perSec = append(perSec, cells/b.at.Sub(a.at).Seconds())
		cpuPerCell = append(cpuPerCell, us(b.use.cpu-a.use.cpu)/cells)
	}
	return perSec, cpuPerCell
}

// runClients drives the campaign list closed loop from n clients, each
// on its own connection, taking campaigns in list order, and returns
// every settled campaign plus the window it took. seg (may be nil)
// counts settled cells.
func (d *loadGen) runClients(ctx context.Context, n int, list []campaign.Spec, seg *segments) ([]*settled, time.Duration) {
	var next atomic.Int64
	out := make([]*settled, len(list))
	start := time.Now()
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			hc := newConnClient()
			defer hc.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				out[i] = d.campaign(ctx, hc, i, list[i], seg)
				if d.progress != nil {
					d.progress <- time.Now()
				}
			}
		}()
	}
	for c := 0; c < n; c++ {
		<-done
	}
	return out, time.Since(start)
}

// campaign runs one campaign through its whole lifecycle: submit,
// follow /events until the stream closes, fetch the results, read its
// indexed cells back through /campaigns/query, evict. It returns nil
// when a step failed (the failure is already tallied).
func (d *loadGen) campaign(ctx context.Context, hc *http.Client, i int, spec campaign.Spec, seg *segments) *settled {
	body, err := json.Marshal(spec)
	if err != nil {
		d.ops.fail(fmt.Sprintf("encode spec %d: %v", i, err))
		return nil
	}
	t0 := time.Now()
	raw, code, err := do(ctx, hc, http.MethodPost, d.base+"/campaigns", body)
	t1 := time.Now()
	if !d.okHTTP("submit", code, err) {
		return nil
	}
	var sub struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		d.ops.fail(fmt.Sprintf("submit %d: bad answer %.100q", i, raw))
		return nil
	}
	s := &settled{cells: sub.Cells}
	defer d.evict(ctx, hc, sub.ID)

	s.events, err = d.follow(ctx, hc, sub.ID)
	t2 := time.Now()
	if err != nil {
		d.ops.fail(fmt.Sprintf("events %s: %v", sub.ID, err))
		return nil
	}
	d.ops.ok()
	raw, code, err = get(ctx, hc, d.base+"/campaigns/"+sub.ID+"/results")
	t3 := time.Now()
	if !d.okHTTP("results", code, err) {
		return nil
	}
	if seg != nil {
		seg.settle(sub.Cells)
	}
	d.lat.add("submit_ms", ms(t1.Sub(t0)))
	d.lat.add("settle_wait_ms", ms(t2.Sub(t1)))
	d.lat.add("results_ms", ms(t3.Sub(t2)))
	d.lat.add("campaign_ms", ms(t3.Sub(t0)))
	s.served = bytes.TrimSuffix(raw, []byte("\n"))
	// One page holds the whole campaign: a page that fills its limit
	// carries a continuation token, so the limit leaves one spare slot.
	q := url.Values{"min_job": {sub.ID}, "max_job": {sub.ID}, "limit": {strconv.Itoa(sub.Cells + 1)}}
	var ok bool
	if s.own, ok = d.query(ctx, hc, q, d.queryLat, time.Time{}); !ok {
		return nil
	}
	return s
}

// okHTTP tallies one request outcome: transport errors and non-2xx
// answers fail.
func (d *loadGen) okHTTP(op string, code int, err error) bool {
	switch {
	case err != nil:
		d.ops.fail(fmt.Sprintf("%s: %v", op, err))
		return false
	case code < 200 || code > 299:
		d.ops.fail(fmt.Sprintf("%s: status %d", op, code))
		return false
	}
	d.ops.ok()
	return true
}

// follow reads the campaign's NDJSON event stream until the daemon
// closes it at settlement, returning the number of cell events.
func (d *loadGen) follow(ctx context.Context, hc *http.Client, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/campaigns/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

func (d *loadGen) evict(ctx context.Context, hc *http.Client, id string) {
	t := time.Now()
	_, code, err := do(ctx, hc, http.MethodDelete, d.base+"/campaigns/"+id, nil)
	if d.okHTTP("evict", code, err) {
		d.lat.add("evict_ms", ms(time.Since(t)))
	}
}

// query pages GET /campaigns/query to completion, recording each page's
// latency under latName (when set) and returning every record; false
// when a page failed (already tallied). A non-zero due times the first
// page from when it was due rather than when it was sent.
func (d *loadGen) query(ctx context.Context, hc *http.Client, q url.Values, latName string, due time.Time) ([]queryRecord, bool) {
	var recs []queryRecord
	for {
		t := time.Now()
		if !due.IsZero() {
			t, due = due, time.Time{}
		}
		raw, code, err := get(ctx, hc, d.base+"/campaigns/query?"+q.Encode())
		el := time.Since(t)
		if !d.okHTTP("query", code, err) {
			return nil, false
		}
		if latName != "" {
			d.lat.add(latName, ms(el))
		}
		var page queryPage
		if err := json.Unmarshal(raw, &page); err != nil {
			d.ops.fail(fmt.Sprintf("query page: %v", err))
			return nil, false
		}
		recs = append(recs, page.Results...)
		if page.NextToken == "" {
			return recs, true
		}
		q.Set("page_token", page.NextToken)
	}
}
