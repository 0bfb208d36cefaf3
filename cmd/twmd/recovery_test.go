package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// TestRecoverTerminalJobs pins the restart behaviour for finished
// jobs: a completed job is restored as done with its aggregate rebuilt
// from the WAL (byte-identical), and a canceled job keeps its terminal
// state instead of resuming.
func TestRecoverTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts1 := httptest.NewServer(s1)

	sub := postSpec(t, ts1, smallSpec())
	idDone, _ := sub["id"].(string)
	waitState(t, ts1, idDone, StateDone)
	resp, err := http.Get(ts1.URL + "/campaigns/" + idDone + "/results")
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}

	// Big enough that the cancel below always lands mid-run, even on
	// the bit-parallel lane path.
	slow := smallSpec()
	slow.Name = "to-cancel"
	slow.Words = []int{512, 768, 1024}
	slow.Widths = []int{16, 32}
	slow.Workers = 1
	sub2 := postSpec(t, ts1, slow)
	idCanceled, _ := sub2["id"].(string)
	resp, err = http.Post(ts1.URL+"/campaigns/"+idCanceled+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts1, idCanceled, StateCanceled)
	ts1.Close()

	s2 := newServer(campaign.Engine{}, 2, openStore(t, dir), nil, nil)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	// The done job serves its results immediately, byte-identical.
	st := getStatus(t, ts2, idDone)
	if st.State != StateDone {
		t.Fatalf("recovered finished job is %q", st.State)
	}
	resp, err = http.Get(ts2.URL + "/campaigns/" + idDone + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered results returned %s", resp.Status)
	}
	if string(got) != string(want) {
		t.Error("recovered done aggregate diverges from the original")
	}

	// The canceled job stays canceled — no surprise resurrection.
	st = getStatus(t, ts2, idCanceled)
	if st.State != StateCanceled {
		t.Fatalf("recovered canceled job is %q", st.State)
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
