package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/jobstore"
	"twmarch/internal/march"
	"twmarch/internal/obs"
	"twmarch/internal/warehouse"
)

// replay is the traced run: the workload's generated campaign list,
// replayed inside this process through the same public calls twmd and
// twmw make, each call timed as a span. It runs after the untraced
// window, so end-to-end numbers never include tracing.
//
// Phases, each bounded by a share of the run length:
//   - lifecycle: jobstore Create/Emit/Finish/Remove and the warehouse
//     Ingester/IndexJob/Checkpoint/RemoveJobID around Engine.Stream,
//     the sinks wrapped for timing — one campaign at a time;
//   - decomposition: the calls that make up one cell (transform, fault
//     list, reference, lane replay), then Simulator.RunCell with its
//     heap allocations, then the fold;
//   - cluster: a Coordinator behind a loopback listener, a cluster.Worker
//     leasing over cluster.Client, Dispatch timed per campaign;
//   - startup and reads: Store.Recover, warehouse Open and Reconcile
//     over the query corpus, then the seeded reader filters via Search.
func replay(ctx context.Context, cfg config, list []campaign.Spec, done []*settled, res *result) error {
	tr := newTracer()
	dir := filepath.Join(cfg.build, "run", fmt.Sprintf("replay-%s-%d", cfg.w.name, cfg.seed))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	defer os.RemoveAll(dir)
	if err := lifecycle(ctx, tr, filepath.Join(dir, "lifecycle"), list, done, budget*4/10, res); err != nil {
		return err
	}
	decompose(ctx, tr, list, budget*2/10, res)
	if err := clusterReplay(ctx, tr, list, done, budget*3/10, res); err != nil {
		return err
	}
	if err := startupReads(tr, cfg, filepath.Join(dir, "startup"), res); err != nil {
		return err
	}
	res.addLayer("trace.wall_s", "s", time.Since(tr.t0).Seconds(), 0)
	res.spans = tr.spans
	return tr.summarize(filepath.Join(cfg.build, "traces", fmt.Sprintf("%s-seed%d.ndjson", cfg.w.name, cfg.seed)), res.ops)
}

// within reports whether campaign k of a phase may start: the first
// always does, later ones while the phase budget lasts.
func within(k int, start time.Time, budget time.Duration) bool {
	return k == 0 || time.Since(start) < budget
}

// checkServed compares a replayed canonical aggregate with the bytes
// twmd served for the same campaign in the untraced window.
func checkServed(ops *tally, phase string, i int, a *campaign.Aggregate, done []*settled) {
	b, err := a.Canonical()
	if err != nil {
		ops.fail(fmt.Sprintf("%s %d: canonical: %v", phase, i, err))
		return
	}
	if i < len(done) && done[i] != nil {
		ops.check(bytes.Equal(b, done[i].served), fmt.Sprintf("%s %d: replayed aggregate differs from the served one", phase, i))
	}
}

func lifecycle(ctx context.Context, tr *tracer, dir string, list []campaign.Spec, done []*settled, budget time.Duration, res *result) error {
	store, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	wh, err := warehouse.Open(filepath.Join(dir, "warehouse.idx"), warehouse.Options{})
	if err != nil {
		return err
	}
	defer wh.Close()
	ops := res.ops
	start := time.Now()
	for i, spec := range list {
		if !within(i, start, budget) {
			break
		}
		trace := "lifecycle/" + strconv.Itoa(i)
		id := warehouse.JobID(uint64(i + 1))
		root := tr.begin(trace, 0, "campaign")
		var j *jobstore.Journal
		tr.time(trace, root, "jobstore.create", func() { j, err = store.Create(id, spec) })
		if err != nil {
			return err
		}
		agg := campaign.NewAggregator(spec)
		ing := wh.Ingester(id)
		stream := tr.begin(trace, root, "campaign.stream")
		a, err := campaign.Engine{}.Stream(ctx, spec, &campaign.Progress{}, agg,
			campaign.SinkFunc(func(r campaign.CellResult) { tr.time(trace, stream, "jobstore.append", func() { j.Emit(r) }) }),
			campaign.SinkFunc(func(r campaign.CellResult) { tr.time(trace, stream, "warehouse.ingest", func() { ing.Emit(r) }) }))
		tr.end(stream)
		if err != nil {
			return err
		}
		tr.time(trace, root, "jobstore.finish", func() { err = j.Finish("done", "") })
		ops.check(err == nil && j.Err() == nil, fmt.Sprintf("lifecycle %d: journal: %v %v", i, err, j.Err()))
		tr.time(trace, root, "warehouse.index_job", func() { err = wh.IndexJob(id, a.Cells) })
		ops.check(err == nil, fmt.Sprintf("lifecycle %d: index: %v", i, err))
		tr.time(trace, root, "warehouse.checkpoint", func() { err = wh.Checkpoint() })
		ops.check(err == nil, fmt.Sprintf("lifecycle %d: checkpoint: %v", i, err))
		var snap *campaign.Aggregate
		tr.time(trace, root, "campaign.snapshot", func() {
			snap = agg.Snapshot()
			_, err = snap.Canonical()
		})
		checkServed(ops, "lifecycle", i, snap, done)
		tr.time(trace, root, "jobstore.remove", func() { err = store.Remove(id) })
		ops.check(err == nil, fmt.Sprintf("lifecycle %d: remove: %v", i, err))
		var n int
		tr.time(trace, root, "warehouse.remove", func() { n, err = wh.RemoveJobID(id) })
		ops.check(err == nil && n == len(a.Cells), fmt.Sprintf("lifecycle %d: warehouse remove dropped %d of %d cells: %v", i, n, len(a.Cells), err))
		tr.time(trace, root, "warehouse.checkpoint", func() { err = wh.Checkpoint() })
		ops.check(err == nil, fmt.Sprintf("lifecycle %d: checkpoint: %v", i, err))
		tr.end(root)
	}
	for _, name := range []string{"jobstore.create", "jobstore.append", "jobstore.finish", "jobstore.remove",
		"warehouse.ingest", "warehouse.index_job", "warehouse.checkpoint", "warehouse.remove", "campaign.snapshot"} {
		xs := tr.durations(name)
		res.addLayer(name+"_us", "us", median(xs), len(xs))
	}
	return nil
}

// decompose times the calls that make up each cell of the first
// campaigns of the list, one Simulator per campaign as twmw keeps one
// per job.
func decompose(ctx context.Context, tr *tracer, list []campaign.Spec, budget time.Duration, res *result) {
	var transform, faultList, reference, lanes, cell, pipe, fold, allocs []float64
	var nFaults, laneSlots int
	var laneTime time.Duration
	var ms0, ms1 runtime.MemStats
	ops := res.ops
	start := time.Now()
	for k, spec := range list {
		// Past the budget, only a campaign of a kind not yet timed runs,
		// so local_heavy always times both its coupling and pipeline cells.
		if !within(k, start, budget) && (spec.Pipeline.On() && len(pipe) > 0 || !spec.Pipeline.On() && len(cell) > 0) {
			continue
		}
		spec = spec.Normalized()
		cells, err := spec.Cells()
		if err != nil {
			ops.fail(fmt.Sprintf("decompose %d: %v", k, err))
			continue
		}
		trace := "decompose/" + strconv.Itoa(k)
		root := tr.begin(trace, 0, "decompose")
		sim := campaign.NewSimulator()
		agg := campaign.NewAggregator(spec)
		for _, c := range cells {
			if !spec.Pipeline.On() {
				cfg, err := cellCampaign(tr, trace, root, spec, c, &transform, &faultList)
				if err != nil {
					ops.fail(fmt.Sprintf("decompose %d cell %d: %v", k, c.Index, err))
					continue
				}
				var ref *faultsim.Reference
				reference = append(reference, us(tr.time(trace, root, "faultsim.reference", func() { ref, err = faultsim.NewReference(cfg.c) })))
				if err != nil {
					ops.fail(fmt.Sprintf("decompose %d cell %d: reference: %v", k, c.Index, err))
					continue
				}
				d := tr.time(trace, root, "faultsim.lanes", func() { _, err = ref.RunLanes(cfg.list) })
				ops.check(err == nil, fmt.Sprintf("decompose %d cell %d: lanes: %v", k, c.Index, err))
				lanes = append(lanes, us(d))
				laneTime += d
				nFaults += len(cfg.list)
				// Derived, not observed: RunLanes documents one DetectLane
				// batch per LaneWidth faults of its list.
				laneSlots += faultsim.LaneWidth * ((len(cfg.list) + faultsim.LaneWidth - 1) / faultsim.LaneWidth)
			}
			name := "campaign.cell"
			if spec.Pipeline.On() {
				name = "campaign.pipeline_cell"
			}
			var r campaign.CellResult
			runtime.ReadMemStats(&ms0)
			d := tr.time(trace, root, name, func() { r = sim.RunCell(ctx, spec, c) })
			runtime.ReadMemStats(&ms1)
			ops.check(r.Err == "", fmt.Sprintf("decompose %d cell %d: %s", k, c.Index, r.Err))
			if spec.Pipeline.On() {
				pipe = append(pipe, us(d))
			} else {
				cell = append(cell, us(d))
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			}
			fold = append(fold, us(tr.time(trace, root, "campaign.fold", func() { agg.Add(r) })))
		}
		tr.end(root)
	}
	if len(pipe) == 0 {
		// No yield-pipeline campaign in this workload: time the first
		// decomposed campaign's cells with local_heavy's pipeline block.
		spec := list[0].Normalized()
		spec.Pipeline = heavySpec(nil, 1).Pipeline
		cells, _ := spec.Cells()
		trace := "decompose/pipeline"
		root := tr.begin(trace, 0, "decompose")
		sim := campaign.NewSimulator()
		for _, c := range cells {
			var r campaign.CellResult
			pipe = append(pipe, us(tr.time(trace, root, "campaign.pipeline_cell", func() { r = sim.RunCell(ctx, spec, c) })))
			ops.check(r.Err == "", fmt.Sprintf("pipeline cell %d: %s", c.Index, r.Err))
		}
		tr.end(root)
	}
	seen := make(map[string]bool)
	calls, repeats := 0, 0
	for _, spec := range list {
		cells, _ := spec.Cells()
		for _, c := range cells {
			key := fmt.Sprint(c.Test, "|", c.Width, "|", c.Scheme)
			calls++
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
	}
	res.addLayer("core.transform_us", "us", median(transform), len(transform))
	res.addLayer("core.transform_repeat_frac", "ratio", float64(repeats)/float64(calls), calls)
	res.addLayer("faultsim.reference_us", "us", median(reference), len(reference))
	res.addLayer("faultsim.lanes_us", "us", median(lanes), len(lanes))
	res.addLayer("faultsim.ns_per_fault", "ns", float64(laneTime.Nanoseconds())/math.Max(1, float64(nFaults)), nFaults)
	res.addLayer("faultsim.lane_fill", "ratio", float64(nFaults)/math.Max(1, float64(laneSlots)), 0)
	res.addLayer("campaign.cell_us", "us", median(cell), len(cell))
	res.addLayer("campaign.cell_allocs", "count", median(allocs), len(allocs))
	res.addLayer("campaign.fault_list_us", "us", median(faultList), len(faultList))
	res.addLayer("campaign.pipeline_cell_us", "us", median(pipe), len(pipe))
	res.addLayer("campaign.fold_us", "us", median(fold), len(fold))
}

// cellSetup is what the engine derives for one cell before simulating.
type cellSetup struct {
	c    faultsim.Campaign
	list []faults.Fault
}

// cellCampaign times the transform and fault enumeration of one cell
// and returns the faultsim campaign the engine would run.
func cellCampaign(tr *tracer, trace string, root int, spec campaign.Spec, c campaign.Cell, transform, faultList *[]float64) (cellSetup, error) {
	var cs cellSetup
	bm, err := march.Lookup(c.Test)
	if err != nil {
		return cs, err
	}
	var test *march.Test
	d := tr.time(trace, root, "core.transform", func() {
		if c.Scheme == campaign.SchemeTWM {
			var r *core.TWMResult
			if r, err = core.TWMTA(bm, c.Width); err == nil {
				test = r.TWMarch
			}
		} else {
			var r *core.Scheme1Result
			if r, err = core.Scheme1(bm, c.Width); err == nil {
				test = r.Test
			}
		}
	})
	if err != nil {
		return cs, err
	}
	*transform = append(*transform, us(d))
	scope, err := campaign.PairScope(spec.Scope)
	if err != nil {
		return cs, err
	}
	d = tr.time(trace, root, "campaign.fault_list", func() { cs.list, err = campaign.FaultList(spec.Classes, scope, c.Words, c.Width) })
	if err != nil {
		return cs, err
	}
	*faultList = append(*faultList, us(d))
	mode := faultsim.DirectCompare
	if c.Mode == campaign.ModeSignature {
		mode = faultsim.Signature
	}
	cs.c = faultsim.Campaign{Test: test, Words: c.Words, Width: c.Width, Mode: mode, Seed: c.Seed}
	return cs, nil
}

// rtTimer times the worker's /cluster round trips and counts idle
// lease grants; a round trip made wholly while a campaign dispatches
// becomes a span under its dispatch span.
type rtTimer struct {
	next http.RoundTripper
	tr   *tracer

	mu              sync.Mutex
	trace           string
	root            int
	lease, complete []float64
	leases, idle    int
}

func (t *rtTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	trace := t.trace
	t.mu.Unlock()
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	name := "cluster." + strings.TrimPrefix(req.URL.Path, "/cluster/")
	switch req.URL.Path {
	case "/cluster/lease":
		t.lease = append(t.lease, us(end.Sub(start)))
		t.leases++
		var g cluster.LeaseGrant
		if json.Unmarshal(body, &g) == nil && g.Status == cluster.StatusIdle {
			t.idle++
			name = "cluster.lease_idle"
		}
	case "/cluster/complete":
		t.complete = append(t.complete, us(end.Sub(start)))
	}
	if trace != "" && trace == t.trace {
		t.tr.record(trace, t.root, name, start, end)
	}
	return resp, nil
}

// awaitIdle returns once n more lease requests have been answered idle,
// plus a moment for the worker to book the waits they start (at most a
// few seconds).
func (t *rtTimer) awaitIdle(n int) {
	t.mu.Lock()
	target := t.idle + n
	t.mu.Unlock()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		t.mu.Lock()
		got := t.idle
		t.mu.Unlock()
		if got >= target {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
}

func (t *rtTimer) dispatching(trace string, root int) {
	t.mu.Lock()
	t.trace, t.root = trace, root
	t.mu.Unlock()
}

func clusterReplay(ctx context.Context, tr *tracer, list []campaign.Spec, done []*settled, budget time.Duration, res *result) error {
	coord := cluster.New(cluster.Options{})
	mux := http.NewServeMux()
	mux.Handle("/cluster/", coord)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	rt := &rtTimer{next: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
	var simMu sync.Mutex
	sims := make(map[string]*campaign.Simulator)
	var cellTime time.Duration
	cells := 0
	wk := &cluster.Worker{
		Client:   &cluster.Client{Base: "http://" + ln.Addr().String(), Worker: "perfbench-replay", HTTPClient: &http.Client{Transport: rt}},
		Parallel: nproc,
		Simulate: func(ctx context.Context, job string, spec campaign.Spec, c campaign.Cell) campaign.CellResult {
			simMu.Lock()
			sim := sims[job]
			if sim == nil {
				sim = campaign.NewSimulator()
				sims[job] = sim
			}
			simMu.Unlock()
			t := time.Now()
			r := sim.RunCell(ctx, spec, c)
			d := time.Since(t)
			rt.mu.Lock()
			cellTime += d
			trace, root := rt.trace, rt.root
			rt.mu.Unlock()
			if trace != "" {
				tr.record(trace, root, "campaign.cell", t, t.Add(d))
			}
			return r
		},
	}
	wctx, cancel := context.WithCancel(ctx)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		wk.Run(wctx)
	}()
	// The worker books each idle wait in twm_worker_idle_seconds_total
	// when the wait begins. The phase therefore opens and closes just
	// after every slot has begun an idle wait, so the waits left out at
	// the start match the waits counted past the end.
	rt.awaitIdle(nproc)
	idle0, start := workerIdleSeconds(), time.Now()
	var dispatchWall time.Duration
	for k, spec := range list {
		if !(k < 2 || time.Since(start) < budget) {
			break
		}
		trace := "cluster/" + strconv.Itoa(k)
		root := tr.begin(trace, 0, "cluster.dispatch")
		rt.dispatching(trace, root)
		a, err := coord.Dispatch(ctx, warehouse.JobID(uint64(k+1)), spec, nil, nil, nil)
		rt.dispatching("", 0)
		dispatchWall += tr.end(root)
		if err != nil {
			res.ops.fail(fmt.Sprintf("cluster %d: dispatch: %v", k, err))
			continue
		}
		cells += len(a.Cells)
		checkServed(res.ops, "cluster", k, a, done)
	}
	rt.awaitIdle(nproc)
	idle, wall := workerIdleSeconds()-idle0, time.Since(start)
	cancel()
	<-stopped

	rt.mu.Lock()
	defer rt.mu.Unlock()
	res.addLayer("cluster.lease_us", "us", median(rt.lease), len(rt.lease))
	res.addLayer("cluster.complete_us", "us", median(rt.complete), len(rt.complete))
	res.addLayer("cluster.idle_grant_frac", "ratio", float64(rt.idle)/math.Max(1, float64(rt.leases)), rt.leases)
	res.addLayer("cluster.worker_idle_frac", "ratio", idle/(nproc*wall.Seconds()), 0)
	overhead := (dispatchWall - cellTime/nproc).Microseconds()
	res.addLayer("cluster.dispatch_overhead_us", "us", float64(overhead)/math.Max(1, float64(cells)), cells)
	return nil
}

// workerIdleSeconds reads twm_worker_idle_seconds_total, which the
// in-process cluster.Worker's slots add to before each idle wait.
func workerIdleSeconds() float64 {
	for _, f := range obs.Default().Snapshot() {
		if f.Name == "twm_worker_idle_seconds_total" && len(f.Series) > 0 {
			return f.Series[0].Value
		}
	}
	return 0
}

// startupReads times daemon start-up over the query corpus — journal
// recovery, index open and reconcile — then the seeded reader filters
// through warehouse.Search, checking each answer against the corpus.
func startupReads(tr *tracer, cfg config, dir string, res *result) error {
	corp, err := loadCorpus(cfg.build)
	if err != nil {
		return err
	}
	if err := corp.workingCopy(dir); err != nil {
		return err
	}
	trace := "startup"
	root := tr.begin(trace, 0, "startup")
	store, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	var jobs []jobstore.Job
	rec := tr.time(trace, root, "jobstore.recover", func() { jobs, err = store.Recover() })
	res.ops.check(err == nil && len(jobs) == corpusJobs, fmt.Sprintf("recover: %d jobs: %v", len(jobs), err))
	var wh *warehouse.Warehouse
	open := tr.time(trace, root, "warehouse.open", func() { wh, err = warehouse.Open(filepath.Join(dir, "warehouse.idx"), warehouse.Options{}) })
	if err != nil {
		return err
	}
	defer wh.Close()
	var st warehouse.ReconcileStats
	recon := tr.time(trace, root, "warehouse.reconcile", func() { st, err = wh.Reconcile(store) })
	res.ops.check(err == nil && len(st.Removed)+len(st.Repaired) == 0, fmt.Sprintf("reconcile: %+v %v", st, err))
	tr.end(root)

	c0 := wh.CacheStats()
	scanned, results := 0, 0
	for i, q := range readerQueries(cfg.seed, 60) {
		trace := "read/" + strconv.Itoa(i)
		qroot := tr.begin(trace, 0, "query")
		wq := warehouse.Query{Test: q.Get("test"), Scheme: q.Get("scheme"), Mode: q.Get("mode")}
		wq.Width, _ = strconv.Atoi(q.Get("width"))
		wq.Words, _ = strconv.Atoi(q.Get("words"))
		wq.Limit, _ = strconv.Atoi(q.Get("limit"))
		lo, _ := strconv.Atoi(q.Get("min_job"))
		hi, _ := strconv.Atoi(q.Get("max_job"))
		wq.MinJob, wq.MaxJob = uint64(lo), uint64(hi)
		a := answered{q: q}
		for {
			var page warehouse.Result
			tr.time(trace, qroot, "warehouse.search", func() { page, err = wh.Search(wq) })
			if err != nil {
				break
			}
			scanned += page.Scanned
			results += len(page.Records)
			for _, r := range page.Records {
				a.recs = append(a.recs, queryRecord{ID: warehouse.JobID(r.Job), Cell: int(r.Cell), Test: r.Dim.Test,
					Width: r.Dim.Width, Words: r.Dim.Words, Scheme: r.Dim.Scheme, Mode: r.Dim.Mode,
					Faults: r.Faults, Detected: r.Detected, TCM: r.TCM, TCP: r.TCP})
			}
			if page.NextToken == "" {
				break
			}
			wq.PageToken = page.NextToken
		}
		tr.end(qroot)
		if err == nil {
			err = corp.verifyAnswer(a)
		}
		res.ops.check(err == nil, fmt.Sprintf("search %d: %v", i, err))
	}
	c1 := wh.CacheStats()
	search := tr.durations("warehouse.search")
	res.addLayer("jobstore.recover_s", "s", rec.Seconds(), 0)
	res.addLayer("warehouse.open_s", "s", open.Seconds(), 0)
	res.addLayer("warehouse.reconcile_s", "s", recon.Seconds(), 0)
	res.addLayer("warehouse.search_us", "us", median(search), len(search))
	res.addLayer("warehouse.scanned_per_result", "ratio", float64(scanned)/math.Max(1, float64(results)), results)
	reads := float64(c1.Hits + c1.Misses - c0.Hits - c0.Misses)
	res.addLayer("warehouse.cache_hit_frac", "ratio", float64(c1.Hits-c0.Hits)/math.Max(1, reads), int(reads))
	return nil
}
