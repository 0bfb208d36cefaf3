package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
)

func openStore(t testing.TB, dir string) *jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// crash simulates an unclean shutdown: every job is abandoned (no
// terminal journal marker) and its context canceled, like a drain
// whose budget expired immediately.
func crash(t testing.TB, s *server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.beginDrain()
	s.drainJobs(ctx, 2*time.Second)
}

// TestRestartRecovery is the durability acceptance test: a journaled
// job interrupted halfway resumes on a fresh server from the journaled
// cells — only the remainder re-simulates — and its final canonical
// aggregate is byte-identical to an uninterrupted run of the same
// spec.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	// Cells tens of milliseconds each even on the bit-parallel lane
	// path: the crash lands mid-grid with a wide margin on either side.
	spec := smallSpec()
	spec.Name = "durable"
	spec.Widths = []int{4, 8}
	spec.Words = []int{768, 1024}
	spec.Workers = 1

	s1 := newServer(campaign.Engine{}, 1, openStore(t, dir), nil, nil)
	ts1 := httptest.NewServer(s1)
	sub := postSpec(t, ts1, spec)
	id, _ := sub["id"].(string)

	// Let part of the grid land in the journal, then crash.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts1, id)
		if st.Done >= 2 {
			break
		}
		if st.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("campaign finished before a mid-run crash could happen: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	crash(t, s1)
	ts1.Close()

	// The journal holds the interrupted job with a partial WAL and no
	// terminal marker.
	jobs, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State != "" {
		t.Fatalf("journal after crash: %+v", jobs)
	}
	journaled := len(jobs[0].Done)
	if journaled == 0 || journaled >= spec.CellCount() {
		t.Fatalf("journal holds %d of %d cells, want a strict partial", journaled, spec.CellCount())
	}

	// Restart: the job recovers, reports the journaled cells
	// immediately, resumes, and completes.
	s2 := newServer(campaign.Engine{}, 1, openStore(t, dir), nil, nil)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	st := getStatus(t, ts2, id)
	if st.Done < int64(journaled) {
		t.Fatalf("recovered job reports %d done, journal had %d", st.Done, journaled)
	}
	fin := waitState(t, ts2, id, StateDone)
	if fin.Done != int64(spec.CellCount()) {
		t.Fatalf("recovered job finished with %d/%d cells", fin.Done, spec.CellCount())
	}

	resp, err := http.Get(ts2.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(resp)
	if err != nil {
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
	if string(got) != string(wb)+"\n" {
		t.Errorf("recovered aggregate diverges from uninterrupted run:\n%.2000s", got)
	}

	// The resumed job's event stream replays every cell exactly once —
	// journaled and re-simulated alike.
	events := readEvents(t, ts2, id)
	if len(events) != spec.CellCount() {
		t.Fatalf("recovered stream delivered %d events, want %d", len(events), spec.CellCount())
	}
	seen := make(map[int]bool)
	for _, r := range events {
		if seen[r.Index] {
			t.Fatalf("recovered stream repeated cell %d", r.Index)
		}
		seen[r.Index] = true
	}

	// New submissions on the recovered server pick up fresh ids.
	sub2 := postSpec(t, ts2, smallSpec())
	if id2, _ := sub2["id"].(string); id2 == id {
		t.Fatalf("recovered server reused job id %s", id)
	}
}

// TestRecoverySkipsOrphanIDs pins id allocation after a restart: a
// crash-orphaned journal directory (no spec.json, so Recover skips it)
// must still block its id from reuse — otherwise the colliding job
// would silently run unjournaled.
func TestRecoverySkipsOrphanIDs(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "c9"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	if id != "c10" {
		t.Fatalf("submission after orphan c9 got id %q, want c10", id)
	}
	waitState(t, ts, id, StateDone)
	waitRunner(t, s, id)
	jobs, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State != StateDone {
		t.Fatalf("new job not journaled: %+v", jobs)
	}
}

// A job journaled with a spec that validation now rejects — here a
// width wider than a word, which used to panic the engine on every
// restart — must settle failed at recovery instead of resuming, and
// the daemon must come up healthy.
func TestRecoverRejectedSpecFails(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{Tests: []string{"MATS"}, Widths: []int{256}, Words: []int{2},
		Classes: []string{"SAF"}, Schemes: []string{campaign.SchemeOne}}
	j, err := openStore(t, dir).Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %s", resp.Status)
	}
	st := getStatus(t, ts, "c1")
	if st.State != StateFailed || !strings.Contains(st.Error, "journal recovery") || !strings.Contains(st.Error, "width 256") {
		t.Fatalf("recovered job is %q (%q), want failed at journal recovery", st.State, st.Error)
	}
	// The daemon keeps serving: a fresh valid submission completes.
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	waitState(t, ts, id, StateDone)
}

// journalCells journals a terminal job directly through the store:
// its spec, the given results in the given (WAL) order, and the
// terminal marker.
func journalCells(t testing.TB, st *jobstore.Store, id string, spec campaign.Spec, cells []campaign.CellResult, state, errMsg string) {
	t.Helper()
	jn, err := st.Create(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cells {
		jn.Emit(r)
	}
	if err := jn.Err(); err != nil {
		t.Fatal(err)
	}
	if err := jn.Finish(state, errMsg); err != nil {
		t.Fatal(err)
	}
}

// runSpec returns the aggregate of an uninterrupted run of spec.
func runSpec(t testing.TB, spec campaign.Spec) *campaign.Aggregate {
	t.Helper()
	agg, err := campaign.Engine{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// settledReads is what a late reader of a settled job gets: its status
// with the timing fields zeroed, and the code and body of /results,
// /results?format=text and /events.
type settledReads struct {
	status                Status
	results, text, events string
}

func readSettled(t testing.TB, ts *httptest.Server, id string) settledReads {
	t.Helper()
	st := getStatus(t, ts, id)
	st.ElapsedNS, st.RunElapsedNS, st.CellsPerSec, st.ETANS = 0, 0, 0, 0
	get := func(path string) string {
		resp, err := http.Get(ts.URL + "/campaigns/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, body)
	}
	return settledReads{status: st, results: get("/results"), text: get("/results?format=text"), events: get("/events")}
}

// eventLines is the /events body of results rs: one compact JSON line
// each, in order.
func eventLines(t testing.TB, rs []campaign.CellResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRecoverTerminalJobs pins the restart behaviour for finished
// jobs: a done job, a canceled job that journaled some cells and a
// failed job come back in their terminal state, never resumed, and
// serve a late reader the same bytes after the restart as before it —
// status (timing fields aside), /results, ?format=text and /events,
// whose lines keep WAL order. A recovered job is restored as a header
// and read back from its journal per request; evicting it removes the
// journal too.
func TestRecoverTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	// The engine never fails a validated spec, so the failed job is
	// journaled directly: three cells, out of grid order, then the
	// marker.
	failedSpec := smallSpec()
	failedSpec.Name = "to-fail"
	all := runSpec(t, failedSpec).Cells
	failedWAL := []campaign.CellResult{all[5], all[0], all[3]}
	const idFailed = "c1"
	journalCells(t, openStore(t, dir), idFailed, failedSpec, failedWAL, StateFailed, "worker fleet lost")

	s1 := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts1 := httptest.NewServer(s1)

	sub := postSpec(t, ts1, smallSpec())
	idDone, _ := sub["id"].(string)
	waitState(t, ts1, idDone, StateDone)

	// Big enough that the cancel below lands mid-run, after the first
	// cells are journaled, even on the bit-parallel lane path.
	slow := smallSpec()
	slow.Name = "to-cancel"
	slow.Words = []int{512, 768, 1024}
	slow.Widths = []int{16, 32}
	slow.Workers = 1
	sub2 := postSpec(t, ts1, slow)
	idCanceled, _ := sub2["id"].(string)
	for getStatus(t, ts1, idCanceled).Done == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts1.URL+"/campaigns/"+idCanceled+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts1, idCanceled, StateCanceled)
	waitRunner(t, s1, idDone)
	waitRunner(t, s1, idCanceled)

	ids := []string{idDone, idCanceled, idFailed}
	before := make(map[string]settledReads)
	for _, id := range ids {
		before[id] = readSettled(t, ts1, id)
	}
	ts1.Close()

	// What the late reader got is what the job held: the done job's
	// aggregate, some but not all cells of the canceled one, and the
	// failed job's journaled cells in WAL order.
	if b := before[idDone]; b.status.State != StateDone || !strings.HasPrefix(b.results, "200 ") {
		t.Fatalf("done job before the restart: %+v %.200s", b.status, b.results)
	}
	if st := before[idCanceled].status; st.State != StateCanceled || st.Done == 0 || st.Done == int64(st.Cells) {
		t.Fatalf("canceled job before the restart: %+v, want a strict partial", st)
	}
	if b := before[idFailed]; b.status.State != StateFailed || b.status.Done != int64(len(failedWAL)) ||
		b.events != "200 "+eventLines(t, failedWAL) || !strings.HasPrefix(b.results, "410 ") {
		t.Fatalf("failed job before the restart: %+v\n%s\n%s", b.status, b.results, b.events)
	}

	s2 := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	for _, id := range ids {
		if s2.jobs[id].hub != nil || s2.jobs[id].aggFinal != nil {
			t.Errorf("recovered job %s holds its cells in memory", id)
		}
		after := readSettled(t, ts2, id)
		if after.status != before[id].status {
			t.Errorf("job %s status after the restart:\n%+v\nbefore:\n%+v", id, after.status, before[id].status)
		}
		for name, pair := range map[string][2]string{
			"/results":             {after.results, before[id].results},
			"/results?format=text": {after.text, before[id].text},
			"/events":              {after.events, before[id].events},
		} {
			if pair[0] != pair[1] {
				t.Errorf("job %s %s after the restart:\n%.600s\nbefore:\n%.600s", id, name, pair[0], pair[1])
			}
		}
	}

	// Evicting a recovered job removes its journal too.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/campaigns/"+idDone, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	jobs, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.ID == idDone {
			t.Fatal("evicted job still journaled")
		}
	}
}

// heapSpec is a four-cell campaign shaped like the jobs of a long
// history: two tests, one width, one size, both schemes, SAF only.
func heapSpec() campaign.Spec {
	return campaign.Spec{
		Name:    "history",
		Tests:   []string{"MATS", "March C-"},
		Widths:  []int{4},
		Words:   []int{8},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Classes: []string{"SAF"},
		Seed:    5,
	}
}

// TestRecoveredJobHeap pins what a job history costs after a restart:
// a terminal job is restored as a header, without its cells, so the
// live heap grows by at most 2 KB per recovered four-cell job. A table
// that keeps each job's aggregator, final aggregate and event lines
// holds about 8.6 KB per job, so the bound catches any of them.
func TestRecoveredJobHeap(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := heapSpec()
	cells := runSpec(t, spec).Cells
	const n = 2000
	for i := 1; i <= n; i++ {
		journalCells(t, st, fmt.Sprintf("c%d", i), spec, cells, StateDone, "")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(s.jobs) != n {
		t.Fatalf("restart recovered %d jobs, want %d", len(s.jobs), n)
	}
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("live heap after restart: %d B per recovered job", perJob)
	if perJob > 2048 {
		t.Errorf("restart over %d done jobs holds %d B of heap per job, want <= 2048", n, perJob)
	}
	runtime.KeepAlive(s)
}

// TestRecoveredJobJournalRemoved pins a recovered job whose journal
// directory disappears behind the server's back: its status still
// answers from the header, its reads answer an error status instead of
// an empty 200, and DELETE still evicts it.
func TestRecoveredJobJournalRemoved(t *testing.T) {
	dir := t.TempDir()
	spec := heapSpec()
	journalCells(t, openStore(t, dir), "c1", spec, runSpec(t, spec).Cells, StateDone, "")
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil))
	defer ts.Close()
	if err := os.RemoveAll(filepath.Join(dir, "c1")); err != nil {
		t.Fatal(err)
	}
	if st := getStatus(t, ts, "c1"); st.State != StateDone || st.Done != int64(spec.CellCount()) {
		t.Fatalf("status after the journal vanished: %+v", st)
	}
	for _, path := range []string{"/results", "/results?format=text", "/events"} {
		resp, err := http.Get(ts.URL + "/campaigns/c1" + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "read journal") {
			t.Errorf("%s without a journal answered %s: %s", path, resp.Status, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/c1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict without a journal returned %s", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/campaigns/c1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still answers %s", resp.Status)
	}
}

// TestRecoveredReadsRaceEvict races DELETE of recovered jobs against
// concurrent /results and /events readers, which read each job's
// journal while the eviction removes it. Every reader must end in a
// 200 carrying the whole, right body or in a 404/410 — never a panic,
// another status, or a truncated body. Run under -race in CI.
func TestRecoveredReadsRaceEvict(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := heapSpec()
	agg := runSpec(t, spec)
	canon, err := agg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// WAL order differs from grid order, so /events must keep it.
	wal := []campaign.CellResult{agg.Cells[2], agg.Cells[0], agg.Cells[3], agg.Cells[1]}
	const n = 16
	for i := 1; i <= n; i++ {
		state := StateDone
		if i%4 == 0 {
			state = StateCanceled
		}
		journalCells(t, st, fmt.Sprintf("c%d", i), spec, wal, state, "")
	}
	ts := httptest.NewServer(newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil))
	defer ts.Close()
	want := map[string]string{
		"/results": string(canon) + "\n",
		"/events":  eventLines(t, wal),
	}
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("c%d", i)
		for path, body := range want {
			for k := 0; k < 3; k++ {
				wg.Add(1)
				go func(path, body string) {
					defer wg.Done()
					resp, err := http.Get(ts.URL + "/campaigns/" + id + path)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := readAll(resp)
					switch {
					case err != nil:
						t.Errorf("%s %s: body read: %v", id, path, err)
					case resp.StatusCode == http.StatusOK && string(got) != body:
						t.Errorf("%s %s: 200 with the wrong body:\n%.300s", id, path, got)
					case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusGone:
						t.Errorf("%s %s: %s %s", id, path, resp.Status, got)
					}
				}(path, body)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("evict %s: %s", id, resp.Status)
			}
		}()
	}
	wg.Wait()
	if jobs, err := openStore(t, dir).Recover(); err != nil || len(jobs) != 0 {
		t.Fatalf("after evicting every job the store holds %d jobs (%v)", len(jobs), err)
	}
}

// A spec.json an older binary journaled may still carry the removed
// no_lanes field. The journal decode ignores unknown fields, so such a
// job recovers as a done header and serves the /results bytes of the
// same job journaled without the field.
func TestRecoverSpecWithNoLanes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := smallSpec()
	cells := runSpec(t, spec).Cells
	journalCells(t, st, "c1", spec, cells, StateDone, "")
	journalCells(t, st, "c2", spec, cells, StateDone, "")
	path := filepath.Join(dir, "c1", "spec.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["no_lanes"] = true
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if j := s.jobs["c1"]; j == nil || j.hub != nil || j.aggFinal != nil {
		t.Fatalf("job with no_lanes not recovered as a header: %+v", j)
	}
	old, cur := readSettled(t, ts, "c1"), readSettled(t, ts, "c2")
	if old.status.State != StateDone || !strings.HasPrefix(old.results, "200 ") {
		t.Fatalf("job with no_lanes after recovery: %+v %.200s", old.status, old.results)
	}
	if old.results != cur.results {
		t.Errorf("/results with no_lanes:\n%.600s\nwithout:\n%.600s", old.results, cur.results)
	}
}
