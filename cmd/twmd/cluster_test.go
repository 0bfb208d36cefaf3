package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
)

// clusterWorkers launches n in-process twmw-equivalent workers against
// the server and returns a stop function.
func clusterWorkers(t *testing.T, base string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		w := &cluster.Worker{
			Client:   &cluster.Client{Base: base, Worker: fmt.Sprintf("tw%d", i), Backoff: time.Millisecond},
			Parallel: 2,
			Poll:     2 * time.Millisecond,
		}
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		for i := 0; i < n; i++ {
			<-done
		}
	}
}

// TestClusterEndToEnd is the acceptance e2e: a campaign submitted to a
// -cluster server is dispatched across three workers — one of which is
// killed mid-run so its cell expires and requeues — and the served
// aggregate is byte-identical to a single-process Engine.Stream run.
// Scheduling events land in the job's dispatch journal. CI runs this
// under -race.
func TestClusterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	coord := cluster.New(cluster.Options{
		LeaseTTL:     200 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
		IdleRetry:    5 * time.Millisecond,
	})
	s := newServer(campaign.Engine{}, 2, openStore(t, dir), coord, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A deadbeat worker grabs the first lease and dies without renewing:
	// the cell must requeue to the healthy fleet.
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	deadbeat := &cluster.Client{Base: ts.URL, Worker: "deadbeat", Backoff: time.Millisecond}
	for {
		g, err := deadbeat.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if g.Status == cluster.StatusLease {
			break
		}
		time.Sleep(time.Millisecond)
	}

	stop := clusterWorkers(t, ts.URL, 3)
	defer stop()
	waitState(t, ts, id, StateDone)
	waitRunner(t, s, id)

	// Byte-identity against the single-process streaming engine.
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Engine{}.Stream(context.Background(), smallSpec(), &campaign.Progress{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wb)+"\n" {
		t.Errorf("cluster aggregate diverges from Engine.Stream:\n%.2000s", got)
	}

	// The event stream still delivers each cell exactly once.
	events := readEvents(t, ts, id)
	if len(events) != smallSpec().CellCount() {
		t.Fatalf("stream delivered %d events, want %d", len(events), smallSpec().CellCount())
	}
	seen := make(map[int]bool)
	for _, r := range events {
		if seen[r.Index] {
			t.Fatalf("cell %d streamed twice", r.Index)
		}
		seen[r.Index] = true
	}

	// The dispatch journal recorded the lease lifecycle, including the
	// deadbeat's expiry and requeue.
	lines, err := openStore(t, dir).DispatchLog(id)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, raw := range lines {
		var ev cluster.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("bad dispatch event %s: %v", raw, err)
		}
		counts[ev.Kind]++
	}
	if counts[cluster.EventComplete] != smallSpec().CellCount() {
		t.Errorf("dispatch log has %d completes, want %d (log: %v)", counts[cluster.EventComplete], smallSpec().CellCount(), counts)
	}
	if counts[cluster.EventExpire] == 0 || counts[cluster.EventRequeue] == 0 {
		t.Errorf("dispatch log missing the deadbeat's expire/requeue: %v", counts)
	}

	// The worker heartbeat listing is served.
	resp, err = http.Get(ts.URL + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var workers []cluster.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(workers) < 4 { // 3 honest + the deadbeat
		t.Errorf("worker listing has %d rows: %+v", len(workers), workers)
	}
}

// TestClusterEvictionRevokesLeases pins satellite 1: evicting a job
// (and canceling one) revokes its outstanding leases — the worker's
// next renew and complete answer gone, so it stops simulating dead
// cells.
func TestClusterEvictionRevokesLeases(t *testing.T) {
	coord := cluster.New(cluster.Options{LeaseTTL: 10 * time.Second, IdleRetry: 2 * time.Millisecond})
	s := newServer(campaign.Engine{}, 2, nil, coord, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	lease := func(cl *cluster.Client) *cluster.LeaseGrant {
		t.Helper()
		for {
			g, err := cl.Lease(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if g.Status == cluster.StatusLease {
				return g
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Evict path.
	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	cl := &cluster.Client{Base: ts.URL, Worker: "held", Backoff: time.Millisecond}
	g := lease(cl)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st, err := cl.Renew(context.Background(), g.Job, g.LeaseID); err != nil || st != cluster.StatusGone {
		t.Errorf("renew after evict: %q, %v (want gone)", st, err)
	}
	if st, err := cl.Complete(context.Background(), g.Job, g.LeaseID, campaign.CellResult{Cell: *g.Cell}, nil); err != nil || st != cluster.StatusGone {
		t.Errorf("complete after evict: %q, %v (want gone)", st, err)
	}

	// Cancel path.
	sub2 := postSpec(t, ts, smallSpec())
	id2, _ := sub2["id"].(string)
	g2 := lease(cl)
	resp, err = http.Post(ts.URL+"/campaigns/"+id2+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, id2, StateCanceled)
	if st, err := cl.Renew(context.Background(), g2.Job, g2.LeaseID); err != nil || st != cluster.StatusGone {
		t.Errorf("renew after cancel: %q, %v (want gone)", st, err)
	}
}

// TestClusterDrainRevokesLeases pins the -drain half of satellite 1: a
// graceful shutdown whose budget expires abandons the running cluster
// job without a terminal marker (journaled for resume) and revokes its
// leases.
func TestClusterDrainRevokesLeases(t *testing.T) {
	dir := t.TempDir()
	coord := cluster.New(cluster.Options{LeaseTTL: 10 * time.Second, IdleRetry: 2 * time.Millisecond})
	s := newServer(campaign.Engine{}, 1, openStore(t, dir), coord, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSpec(t, ts, smallSpec())
	id, _ := sub["id"].(string)
	cl := &cluster.Client{Base: ts.URL, Worker: "drained", Backoff: time.Millisecond}
	var g *cluster.LeaseGrant
	for {
		var err error
		g, err = cl.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if g.Status == cluster.StatusLease {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// No workers complete anything: the drain budget expires and the
	// job is abandoned.
	crash(t, s)
	if st, err := cl.Renew(context.Background(), g.Job, g.LeaseID); err != nil || st != cluster.StatusGone {
		t.Errorf("renew after drain: %q, %v (want gone)", st, err)
	}

	// The abandoned job has no terminal marker — it resumes on restart.
	jobs, err := openStore(t, dir).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State != "" {
		t.Fatalf("journal after drain: %+v", jobs)
	}
}
