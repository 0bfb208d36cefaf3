package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twmarch/internal/campaign"
)

func smallSpec() campaign.Spec {
	return campaign.Spec{
		Name:    "e2e",
		Tests:   []string{"MATS", "March C-"},
		Widths:  []int{2, 4},
		Words:   []int{2, 3},
		Classes: []string{"SAF", "TF"},
		Seed:    11,
	}
}

func postSpec(t testing.TB, ts *httptest.Server, spec campaign.Spec) map[string]any {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %s", resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// The job outlives both the request and the test body. Stop it when
	// the test ends, before a temporary datadir is removed: a job still
	// writing its journal makes that removal fail.
	if s, ok := ts.Config.Handler.(*server); ok {
		id, _ := out["id"].(string)
		t.Cleanup(func() { stopJob(t, s, id) })
	}
	return out
}

// stopJob cancels a job and waits until its runner has exited, which
// is after its last journal write.
func stopJob(t testing.TB, s *server, id string) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return // evicted
	}
	j.cancel()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Errorf("job %s still running 30s after cancel", id)
	}
}

// waitRunner waits until job id's runner has exited. settle publishes
// the terminal state before it finishes the journal and the index, so
// a test that reads the store or restarts the server after waitState
// waits here first.
func waitRunner(t testing.TB, s *server, id string) {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s is not in the job table", id)
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s runner still running 30s after its terminal state", id)
	}
}

func getStatus(t testing.TB, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status returned %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t testing.TB, ts *httptest.Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State != StateRunning && st.State != StateQueued {
			t.Fatalf("campaign %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %q", id, want)
	return Status{}
}

// TestEndToEnd exercises the whole job lifecycle: submit → poll →
// fetch results → cancel a second campaign. The fetched aggregate must
// be byte-identical to a direct engine run of the same spec.
func TestEndToEnd(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()

	// Submit.
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("submit response has no id: %v", sub)
	}
	if cells, _ := sub["cells"].(float64); cells != 16 {
		t.Fatalf("submit reports %v cells, want 16 (2 tests × 2 widths × 2 sizes × 2 schemes)", sub["cells"])
	}

	// Poll until done.
	st := waitState(t, ts, id, StateDone)
	if st.Done != int64(st.Cells) || st.Fraction != 1 {
		t.Fatalf("done campaign reports progress %d/%d (%.2f)", st.Done, st.Cells, st.Fraction)
	}

	// Fetch results and compare with a direct engine run.
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results returned %s: %s", resp.Status, got)
	}
	want, err := campaign.Engine{}.Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantBytes)+"\n" {
		t.Errorf("daemon aggregate diverges from direct engine run:\n%s", got)
	}

	// Text rendering.
	resp, err = http.Get(ts.URL + "/campaigns/" + id + "/results?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(resp)
	if !strings.Contains(string(text), "op counts") {
		t.Errorf("text results missing op-count table:\n%s", text)
	}

	// Cancel a big second campaign mid-run.
	big := smallSpec()
	big.Name = "big"
	big.Words = []int{64, 96, 128, 160}
	big.Widths = []int{8, 16, 32}
	big.Workers = 1
	sub2 := postSpec(t, ts, big)
	id2, _ := sub2["id"].(string)
	resp, err = http.Post(ts.URL+"/campaigns/"+id2+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %s", resp.Status)
	}
	st2 := waitState(t, ts, id2, StateCanceled)
	if st2.Error == "" {
		t.Error("canceled campaign carries no error")
	}
	resp, err = http.Get(ts.URL + "/campaigns/" + id2 + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("results of canceled campaign returned %s, want 410", resp.Status)
	}

	// Listing shows both, in submission order.
	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != id || list[1].ID != id2 {
		t.Errorf("listing wrong: %+v", list)
	}

	// DELETE evicts the job: status turns 404, listing shrinks.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id2, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %s", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/campaigns/" + id2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted campaign still resolves: %s", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	list = nil
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("listing after eviction wrong: %+v", list)
	}
}

// TestPipelineSpecEndToEnd submits a pipeline-enabled spec and checks
// that the results report the yield section: diagnosed fault-class
// histogram, repairability rate, and post-ECC escape rate.
func TestPipelineSpecEndToEnd(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()

	spec := smallSpec()
	spec.Pipeline = &campaign.PipelineSpec{Enabled: true, SpareRows: 1, SpareCols: 1, ECC: campaign.ECCSEC}
	sub := postSpec(t, ts, spec)
	id, _ := sub["id"].(string)
	waitState(t, ts, id, StateDone)

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results returned %s: %s", resp.Status, got)
	}
	var agg struct {
		Yield      map[string]json.RawMessage `json:"yield"`
		YieldTotal struct {
			Analyzed          int            `json:"analyzed"`
			ByDiagClass       map[string]int `json:"by_diag_class"`
			RepairabilityRate float64        `json:"repairability_rate"`
			PostECCEscapeRate float64        `json:"post_ecc_escape_rate"`
		} `json:"yield_total"`
	}
	if err := json.Unmarshal(got, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Yield) == 0 || agg.YieldTotal.Analyzed == 0 {
		t.Fatalf("results missing yield section:\n%.2000s", got)
	}
	if len(agg.YieldTotal.ByDiagClass) == 0 {
		t.Error("yield section has no diagnosed fault-class histogram")
	}
	if r := agg.YieldTotal.RepairabilityRate; r <= 0 || r > 1 {
		t.Errorf("repairability rate %v out of (0, 1]", r)
	}
	if r := agg.YieldTotal.PostECCEscapeRate; r < 0 || r > 1 {
		t.Errorf("post-ECC escape rate %v out of [0, 1]", r)
	}

	resp, err = http.Get(ts.URL + "/campaigns/" + id + "/results?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(resp)
	if !strings.Contains(string(text), "yield pipeline") {
		t.Errorf("text results missing yield table:\n%s", text)
	}
}

// TestJobQueue pins the -maxjobs gate: with one slot, a second
// submission stays queued while the first runs, and canceling a queued
// job resolves it without ever running.
func TestJobQueue(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 1, nil, nil, nil))
	defer ts.Close()

	// Seconds of single-worker simulation even on the bit-parallel
	// lane path; the test cancels it long before it finishes.
	slow := smallSpec()
	slow.Name = "slow"
	slow.Words = []int{512, 768, 1024}
	slow.Widths = []int{16, 32}
	slow.Workers = 1
	sub1 := postSpec(t, ts, slow)
	id1, _ := sub1["id"].(string)

	sub2 := postSpec(t, ts, smallSpec())
	id2, _ := sub2["id"].(string)
	st2 := getStatus(t, ts, id2)
	if st2.State != StateQueued {
		t.Fatalf("second job is %q with one slot busy, want %q", st2.State, StateQueued)
	}
	if st2.Fraction != 0 {
		t.Errorf("queued job reports fraction %.2f, want 0", st2.Fraction)
	}
	if st2.Coverage != 0 {
		t.Errorf("queued job reports coverage %.2f, want 0 (nothing folded yet)", st2.Coverage)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + id2 + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("results of queued job returned %s, want 409", resp.Status)
	}

	// Cancel the queued job: it resolves canceled with nothing run.
	resp, err = http.Post(ts.URL+"/campaigns/"+id2+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st2 = waitState(t, ts, id2, StateCanceled)
	if st2.Done != 0 {
		t.Errorf("canceled queued job ran %d cells", st2.Done)
	}

	// Cancel the runner; the slot frees for later submissions.
	resp, err = http.Post(ts.URL+"/campaigns/"+id1+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, id1, StateCanceled)
	sub3 := postSpec(t, ts, smallSpec())
	id3, _ := sub3["id"].(string)
	waitState(t, ts, id3, StateDone)
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.Bytes(), err
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()
	for _, body := range []string{
		`{`,
		`{"tests":[]}`,
		`{"tests":["no such test"],"widths":[4],"words":[4]}`,
		`{"tests":["MATS"],"widths":[3],"words":[4]}`,
		`{"tests":["MATS"],"widths":[4],"words":[4],"bogus_field":1}`,
		`{"tests":["MATS"],"widths":[4],"words":[100000]}`,
		// A power of two wider than a word: it once passed validation
		// and panicked the engine in Scheme1.
		`{"tests":["MATS"],"widths":[256],"words":[2],"classes":["SAF"],"schemes":["scheme1"]}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s accepted with %s", body, resp.Status)
		}
	}
}

// The no_lanes spec field is gone: a submission naming it is rejected
// with the field's name, like any unknown field.
func TestSubmitRejectsNoLanes(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()
	body := `{"tests":["MATS"],"widths":[2],"words":[2],"classes":["SAF"],"no_lanes":true}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "no_lanes") {
		t.Errorf("spec with no_lanes: %s %s", resp.Status, msg)
	}
}

func TestRoutingErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, nil, nil, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/campaigns/c999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id returned %s", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/campaigns", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /campaigns returned %s", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz returned %s", resp.Status)
	}
}

// TestRunOnce covers the -once -spec batch mode in both output formats.
func TestRunOnce(t *testing.T) {
	spec := smallSpec()
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := runOnce(context.Background(), campaign.Engine{}, path, false, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "campaign \"e2e\"") {
		t.Errorf("text report missing title:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := runOnce(context.Background(), campaign.Engine{}, path, true, &js); err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Engine{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if js.String() != string(wb)+"\n" {
		t.Error("-once -json output diverges from direct engine run")
	}

	if err := runOnce(context.Background(), campaign.Engine{}, "", false, &text); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := runOnce(context.Background(), campaign.Engine{}, filepath.Join(t.TempDir(), "nope.json"), false, &text); err == nil {
		t.Error("unreadable spec accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := runOnce(context.Background(), campaign.Engine{}, bad, false, &text); err == nil {
		t.Error("malformed spec accepted")
	}
}
