package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"twmarch/internal/campaign"
	"twmarch/internal/warehouse"
)

// newWarehouseServer builds a datadir-backed server with the result
// warehouse enabled, the way main() wires it.
func newWarehouseServer(t testing.TB, dir string) (*server, *httptest.Server) {
	t.Helper()
	store := openStore(t, dir)
	wh, err := warehouse.Open(filepath.Join(dir, warehouseFile), warehouse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newServerWith(campaign.Engine{}, 2, store, nil, wh, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); wh.Close() })
	return s, ts
}

// getQuery fetches one /campaigns/query page.
func getQuery(t testing.TB, ts *httptest.Server, params url.Values) queryPage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/query?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned %d", resp.StatusCode)
	}
	var page queryPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newWarehouseServer(t, dir)

	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	waitState(t, ts, id, StateDone)
	cells := smallSpec().CellCount()

	// Unfiltered: the whole job.
	page := getQuery(t, ts, url.Values{})
	if len(page.Results) != cells {
		t.Fatalf("unfiltered query returned %d records, want %d", len(page.Results), cells)
	}

	// Dimension-filtered.
	page = getQuery(t, ts, url.Values{"test": {"MATS"}, "width": {"4"}})
	want := cells / 4 // one of two tests, one of two widths
	if len(page.Results) != want {
		t.Fatalf("filtered query returned %d records, want %d", len(page.Results), want)
	}
	for _, r := range page.Results {
		if r.Test != "MATS" || r.Width != 4 || r.ID != id {
			t.Fatalf("record outside the filter: %+v", r)
		}
		if r.Faults <= 0 || r.Detected <= 0 || r.Coverage <= 0 {
			t.Fatalf("record missing counters: %+v", r)
		}
	}

	// Job-range filtered with twmd-shaped bounds.
	page = getQuery(t, ts, url.Values{"min_job": {id}, "max_job": {id}})
	if len(page.Results) != cells {
		t.Fatalf("job-range query returned %d records, want %d", len(page.Results), cells)
	}
	page = getQuery(t, ts, url.Values{"min_job": {"999999"}})
	if len(page.Results) != 0 {
		t.Fatalf("out-of-range query returned %d records, want 0", len(page.Results))
	}

	// Paged: pages of 3 reassemble the full set without duplicates.
	var got int
	seen := map[string]bool{}
	params := url.Values{"limit": {"3"}}
	for {
		page = getQuery(t, ts, params)
		got += len(page.Results)
		for _, r := range page.Results {
			k := fmt.Sprintf("%s/%d", r.ID, r.Cell)
			if seen[k] {
				t.Fatalf("duplicate %s across pages", k)
			}
			seen[k] = true
		}
		if page.NextToken == "" {
			break
		}
		params.Set("page_token", page.NextToken)
		if got > cells {
			t.Fatal("paging did not terminate")
		}
	}
	if got != cells {
		t.Fatalf("paged scan returned %d records, want %d", got, cells)
	}

	// Bad parameters are 400s.
	for _, bad := range []string{"width=x", "min_job=nope", "limit=-1"} {
		resp, err := http.Get(ts.URL + "/campaigns/query?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query?%s returned %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestQueryDisabledWithoutWarehouse(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/campaigns/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query without warehouse returned %d, want 503", resp.StatusCode)
	}
}

func TestEvictDropsIndexEntries(t *testing.T) {
	dir := t.TempDir()
	_, ts := newWarehouseServer(t, dir)

	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	waitState(t, ts, id, StateDone)
	if n := len(getQuery(t, ts, url.Values{}).Results); n == 0 {
		t.Fatal("no records indexed before evict")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict returned %d", resp.StatusCode)
	}
	if n := len(getQuery(t, ts, url.Values{}).Results); n != 0 {
		t.Fatalf("query still serves %d records after evict", n)
	}
}

// TestWarehouseRestartReconcile is the drift-repair acceptance test:
// an index that vanishes (or was never written) while done journals
// exist is repaired at the next startup's reconcile, and an index
// entry whose journal was removed behind the server's back is
// dropped.
func TestWarehouseRestartReconcile(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newWarehouseServer(t, dir)

	sub := postSpec(t, ts1, smallSpec())
	id, _ := sub["id"].(string)
	waitState(t, ts1, id, StateDone)
	sub2 := postSpec(t, ts1, smallSpec())
	id2, _ := sub2["id"].(string)
	waitState(t, ts1, id2, StateDone)
	cells := smallSpec().CellCount()

	// Settling indexes in memory only; the snapshot is written at close.
	if _, err := os.Stat(filepath.Join(dir, warehouseFile)); !os.IsNotExist(err) {
		t.Fatalf("settle wrote the warehouse snapshot: %v", err)
	}
	ts1.Close()
	if err := s1.wh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, warehouseFile)); err != nil {
		t.Fatalf("close wrote no warehouse snapshot: %v", err)
	}

	// Sabotage both directions: the index file disappears entirely, and
	// job 2's journal disappears behind the warehouse's back.
	if err := os.Remove(filepath.Join(dir, warehouseFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, id2)); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newWarehouseServer(t, dir)
	page := getQuery(t, ts2, url.Values{})
	if len(page.Results) != cells {
		t.Fatalf("after reconcile query returned %d records, want %d", len(page.Results), cells)
	}
	for _, r := range page.Results {
		if r.ID != id {
			t.Fatalf("record for removed job survived reconcile: %+v", r)
		}
	}
}

// TestRestartLoadsJournalsOnce pins start-up to one pass over the
// journals: a restart over N journaled jobs, which both rebuilds the
// job table and re-indexes every job into a missing snapshot, moves
// the recovery counters by exactly one load per job.
func TestRestartLoadsJournalsOnce(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newWarehouseServer(t, dir)
	const n = 3
	for i := 0; i < n; i++ {
		sub := postSpec(t, ts1, smallSpec())
		id, _ := sub["id"].(string)
		waitState(t, ts1, id, StateDone)
	}
	before := scrape(t, ts1)
	ts1.Close()
	if err := s1.wh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, warehouseFile)); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newWarehouseServer(t, dir)
	after := scrape(t, ts2)
	cells := smallSpec().CellCount()
	for name, want := range map[string]int{
		"twm_jobstore_recovered_jobs_total":  n,
		"twm_jobstore_recovered_cells_total": n * cells,
	} {
		if d := after[name] - before[name]; d != float64(want) {
			t.Errorf("restart over %d journaled jobs moved %s by %v, want %d", n, name, d, want)
		}
	}
	if page := getQuery(t, ts2, url.Values{}); len(page.Results) != n*cells {
		t.Fatalf("after restart the index holds %d records, want %d", len(page.Results), n*cells)
	}
}
