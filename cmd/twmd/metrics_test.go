package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
)

// scrape fetches /metrics and parses the exposition into a map keyed
// by the full sample name including labels, e.g.
// `twm_cluster_lease_events_total{kind="complete"}`.
func scrape(t testing.TB, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndToEnd pins the observability acceptance criterion: a
// cluster campaign run end to end moves the engine, cluster, worker,
// and HTTP counters visible on GET /metrics, and the /debug surfaces
// answer. The registry is process-global, so every assertion is a
// delta between scrapes, immune to other tests in the package.
func TestMetricsEndToEnd(t *testing.T) {
	coord := cluster.New(cluster.Options{
		LeaseTTL:  5 * time.Second,
		IdleRetry: 2 * time.Millisecond,
	})
	s := newServer(campaign.Engine{}, 2, nil, coord, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	before := scrape(t, ts)

	stop := clusterWorkers(t, ts.URL, 2)
	defer stop()
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	waitState(t, ts, id, StateDone)

	after := scrape(t, ts)
	cells := float64(smallSpec().CellCount())
	delta := func(key string) float64 { return after[key] - before[key] }

	// Engine layer: every cell simulated by the in-process workers runs
	// the instrumented runCell path.
	if d := delta("twm_engine_cells_total"); d < cells {
		t.Errorf("twm_engine_cells_total advanced by %v, want >= %v", d, cells)
	}
	if d := delta("twm_engine_cell_duration_seconds_count"); d < cells {
		t.Errorf("cell duration histogram count advanced by %v, want >= %v", d, cells)
	}
	// Cluster layer: one lease and one complete event per cell at
	// minimum (expiries would add more, never fewer).
	if d := delta(`twm_cluster_lease_events_total{kind="lease"}`); d < cells {
		t.Errorf("lease events advanced by %v, want >= %v", d, cells)
	}
	if d := delta(`twm_cluster_lease_events_total{kind="complete"}`); d < cells {
		t.Errorf("complete events advanced by %v, want >= %v", d, cells)
	}
	// Worker layer.
	if d := delta(`twm_worker_leases_total{outcome="completed"}`); d < cells {
		t.Errorf("worker completed leases advanced by %v, want >= %v", d, cells)
	}
	// HTTP layer: the scrape itself and the status polls are counted.
	if d := delta(`twm_http_requests_total{component="twmd",route="/metrics",method="GET",code="200"}`); d < 1 {
		t.Errorf("/metrics requests advanced by %v, want >= 1", d)
	}
	if after[`twm_http_request_duration_seconds_count{component="twmd",route="/campaigns/{id}"}`] < 1 {
		t.Error("status-poll latency histogram has no observations")
	}
	// Satellite 2: the status endpoint's rate/ETA and the gauge series
	// are the same numbers — the job gauge family must carry this job.
	if _, ok := after[`twm_job_cells_per_sec{job="`+id+`"}`]; !ok {
		t.Errorf("no twm_job_cells_per_sec series for job %s", id)
	}
	if after[`twm_jobs{state="done"}`] < 1 {
		t.Errorf("twm_jobs{state=done} = %v, want >= 1", after[`twm_jobs{state="done"}`])
	}

	// Evicting the job drops its per-job gauge series.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := scrape(t, ts)
	if _, ok := final[`twm_job_cells_per_sec{job="`+id+`"}`]; ok {
		t.Errorf("evicted job %s still has a rate gauge series", id)
	}

	// Debug surfaces answer on the same mux.
	resp, err = http.Get(ts.URL + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Goroutines int `json:"goroutines"`
		Metrics    []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Goroutines < 1 || len(snap.Metrics) == 0 {
		t.Errorf("/debug/runtime snapshot implausible: goroutines=%d metrics=%d", snap.Goroutines, len(snap.Metrics))
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %s", resp.Status)
	}
}

// TestStatusServesGaugeRates pins the single-source-of-truth half of
// satellite 2: the cells_per_sec and eta_ns a status poll reports are
// read back from the registry gauges it just published.
func TestStatusServesGaugeRates(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	st := waitState(t, ts, id, StateDone)
	after := scrape(t, ts)
	if got := after[`twm_job_cells_per_sec{job="`+id+`"}`]; got != st.CellsPerSec {
		t.Errorf("status cells_per_sec %v != gauge %v", st.CellsPerSec, got)
	}
	if got := after[`twm_job_eta_ns{job="`+id+`"}`]; int64(got) != st.ETANS {
		t.Errorf("status eta_ns %v != gauge %v", st.ETANS, got)
	}
}

// TestRecoveredJobsPublishNoRateGauges pins the per-job gauges to jobs
// that run in this process: after a restart over N terminal jobs,
// /metrics carries no twm_job_cells_per_sec or twm_job_eta_ns series
// for them, their status reports 0 for both, and twm_jobs still counts
// every one. The ids are unused elsewhere in the package, whose tests
// share the process-wide registry.
func TestRecoveredJobsPublishNoRateGauges(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := heapSpec()
	cells := runSpec(t, spec).Cells
	const n = 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", 9001+i)
		journalCells(t, st, ids[i], spec, cells, StateDone, "")
	}
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil))
	defer ts.Close()
	for _, id := range ids {
		if s := getStatus(t, ts, id); s.CellsPerSec != 0 || s.ETANS != 0 {
			t.Errorf("recovered job %s reports rate %v, eta %d", id, s.CellsPerSec, s.ETANS)
		}
	}
	got := scrape(t, ts)
	for _, id := range ids {
		for _, name := range []string{"twm_job_cells_per_sec", "twm_job_eta_ns"} {
			if _, ok := got[name+`{job="`+id+`"}`]; ok {
				t.Errorf("recovered job %s has a %s series", id, name)
			}
		}
	}
	if d := got[`twm_jobs{state="done"}`]; d != n {
		t.Errorf(`twm_jobs{state="done"} = %v, want %d`, d, n)
	}
}
