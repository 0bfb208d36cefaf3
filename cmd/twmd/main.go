// Command twmd is the campaign job server: an HTTP/JSON daemon that
// runs test campaigns (grids over march tests, word widths, memory
// sizes, schemes and detection modes) on the internal/campaign engine.
//
//	twmd -addr :8080            serve the job API
//	twmd -addr :8080 -datadir d serve with a durable job journal
//	twmd -once -spec c.json     run one campaign and print the report
//	twmd -once -spec c.json -json   ... printing canonical JSON instead
//
// At most -maxjobs campaigns run concurrently; further submissions are
// accepted and queue in FIFO-by-slot order (state "queued").
//
// Results stream: every completed grid cell is an event. The status
// endpoint serves live partial coverage with elapsed time, rate and
// ETA while a grid runs, and GET /campaigns/{id}/events follows the
// per-cell result stream as NDJSON. With -datadir every submitted spec
// and completed cell is journaled (internal/jobstore): a restarted
// twmd recovers its jobs. An interrupted job resumes with its
// journaled cells pre-folded and re-simulates only the remainder — the
// recovered canonical aggregate is byte-identical to an uninterrupted
// run. A terminal job comes back as a small header (state, grid size,
// tallies), and its results and events are read from its journal on
// each request, so a long job history costs memory per job, not per
// cell. On SIGINT/SIGTERM the server stops accepting submissions,
// drains running jobs for up to -drain, and flushes the journal before
// exiting.
//
// With -datadir the daemon also maintains the indexed result
// warehouse (internal/warehouse) next to the journals: every settled
// job's cell results are indexed under their grid dimensions, and
// GET /campaigns/query serves dimension- and job-range-filtered reads
// from the index without replaying a single WAL. The index lives in
// memory and is saved to one snapshot file at shutdown; it is a
// disposable view — a missing or damaged snapshot opens empty, and
// startup reconciles the index against the journal set, re-indexing
// every done job it does not hold exactly.
//
// With -cluster the daemon stops simulating locally and becomes the
// coordinator of a worker fleet: each submitted campaign's cells are
// leased out over POST /cluster/lease to twmw worker daemons, kept
// alive by heartbeats, requeued with backoff when a worker dies, and
// folded back through the same aggregator/journal/event path — the
// canonical aggregate is byte-identical to a local run regardless of
// worker placement or failures. Evicting, canceling, or draining a
// job revokes its outstanding leases: the workers' next renew or
// complete answers "gone" and they stop simulating dead cells.
//
// Specs may carry a "pipeline" block (see campaign.PipelineSpec) to
// run the diagnosis-and-repair yield stage per fault; results then
// include the yield section — fault-class histogram, repairability
// rate, post-ECC escape rate, spare utilization — in both the
// canonical JSON aggregate and the text report.
//
// Cells simulate on the reference-trace fast path (one fault-free
// reference per cell, shared across its fault population); a spec may
// set "naive": true to force the one-shot per-fault loop for
// debugging. The canonical aggregate is byte-identical either way.
//
// API (all bodies JSON):
//
//	POST   /campaigns            submit a campaign.Spec, returns {id}
//	GET    /campaigns            list all campaigns with status
//	GET    /campaigns/query      indexed result queries: filter by grid
//	                             dimensions (test, width, words, scheme,
//	                             mode) and job range (min_job, max_job),
//	                             paged via limit/page_token; served from
//	                             the result warehouse (internal/warehouse)
//	                             without replaying any WAL
//	GET    /campaigns/{id}       poll status, live partial coverage,
//	                             elapsed/rate/ETA
//	GET    /campaigns/{id}/events    NDJSON stream of per-cell results
//	GET    /campaigns/{id}/results   fetch the aggregate (canonical
//	                             JSON; ?format=text for the table)
//	GET    /campaigns/{id}/trace     the job's span timeline as NDJSON:
//	                             submit, dispatch, leases, and the
//	                             worker/cell spans shipped back by the
//	                             fleet (internal/tracing)
//	POST   /campaigns/{id}/cancel    cancel a running campaign
//	DELETE /campaigns/{id}       cancel (if running) and evict the job,
//	                             freeing its results and journal
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text exposition (internal/obs)
//	GET    /debug/runtime        JSON runtime snapshot (goroutines, heap,
//	                             full registry dump)
//	GET    /debug/traces         recent traces from the process span
//	                             ring, NDJSON (filter by trace, job,
//	                             error, min_dur, limit)
//	GET    /debug/pprof/...      net/http/pprof profiling surface
//
// Every request runs under a tracing span (W3C traceparent in,
// continued across coordinator leases and worker execution);
// -trace-sample and -trace-slow tune what the span ring retains.
//
// Logs are structured (log/slog): every record carries component=twmd
// plus job/lease attributes where applicable — and trace/span ids
// when logged under a traced context; -log-format selects text or
// json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
	"twmarch/internal/jobstore"
	"twmarch/internal/obs"
	"twmarch/internal/tracing"
	"twmarch/internal/warehouse"
)

// jobCollectorCap bounds the spans a single job's timeline retains for
// GET /campaigns/{id}/trace. Generous relative to the per-completion
// ship cap: a long campaign's early cells stay on the timeline until
// the cap, then the collector counts drops instead of growing.
const jobCollectorCap = 4096

// configureTracing installs the process-wide tracer from the -trace-*
// flags (shared verbatim by twmd and twmw). A zero or negative sample
// rate means "head-sample nothing" — spans then survive only through
// the tail-keep rules (errored, or slower than slow) — which Options
// expresses as a negative rate (zero is its "default to 1" sentinel).
func configureTracing(sample float64, slow time.Duration) {
	if sample <= 0 {
		sample = -1
	}
	tracing.Configure(tracing.Options{Sample: sample, Slow: slow})
}

// Per-job rate gauges: the one source of truth for cells_per_sec and
// eta_ns — published from the engine's Progress, read back by both the
// status endpoint and /metrics scrapes (via the registry's OnGather
// hook), and deleted when the job is evicted. Only jobs that run in
// this process have a series; a recovered terminal job never ran here
// and reports 0 for both.
var (
	metJobRate = obs.NewGauge("twm_job_cells_per_sec",
		"live simulation rate per job, in grid cells per second", "job")
	metJobETA = obs.NewGauge("twm_job_eta_ns",
		"estimated remaining run time per job, in nanoseconds", "job")
	metJobsByState = obs.NewGauge("twm_jobs",
		"jobs in the server's table by state", "state")
)

func main() {
	fs := flag.NewFlagSet("twmd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	once := fs.Bool("once", false, "run one campaign from -spec and exit")
	specPath := fs.String("spec", "", "campaign spec file (JSON) for -once")
	asJSON := fs.Bool("json", false, "with -once, print canonical JSON instead of the text report")
	workers := fs.Int("workers", 0, "default worker count when the spec leaves it 0 (0 = GOMAXPROCS)")
	maxJobs := fs.Int("maxjobs", 2, "campaigns run concurrently; submissions beyond this queue")
	datadir := fs.String("datadir", "", "durable job journal directory; empty = in-memory only")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining running jobs")
	clusterMode := fs.Bool("cluster", false, "dispatch campaign cells to twmw workers over /cluster instead of simulating locally")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "with -cluster, how long a leased cell lives without a worker heartbeat before it requeues")
	chaosMode := fs.Bool("chaos", false, "with -cluster, expose the /cluster/chaos fault-injection surface (soak harnesses only; never in production)")
	addrFile := fs.String("addr-file", "", "write the resolved listen address to this file once serving (lets harnesses use -addr 127.0.0.1:0)")
	logFormat := fs.String("log-format", obs.LogText, "structured log format: text or json")
	traceSample := fs.Float64("trace-sample", 1, "tracing head-sample rate in [0,1]; 0 keeps only errored and slow spans")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "tracing tail-keep threshold: unsampled spans at least this slow are retained anyway")
	fs.Parse(os.Args[1:])

	configureTracing(*traceSample, *traceSlow)
	logger := obs.NewLogger(os.Stderr, *logFormat, "twmd", nil)
	eng := campaign.Engine{Workers: *workers}
	if *once {
		if err := runOnce(context.Background(), eng, *specPath, *asJSON, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "twmd:", err)
			os.Exit(1)
		}
		return
	}
	var store *jobstore.Store
	if *datadir != "" {
		var err error
		store, err = jobstore.Open(*datadir)
		if err != nil {
			logger.Error("open jobstore failed", "datadir", *datadir, "err", err)
			os.Exit(1)
		}
	}
	var coord *cluster.Coordinator
	if *clusterMode {
		coord = cluster.New(cluster.Options{LeaseTTL: *leaseTTL, Chaos: *chaosMode})
	}
	var wh *warehouse.Warehouse
	if store != nil {
		wh = openWarehouse(*datadir, logger)
	}
	h := newServerWith(eng, *maxJobs, store, coord, wh, logger)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		// Bounds the whole request read including the body, so a
		// trickled POST cannot hold a handler goroutine open.
		ReadTimeout: 30 * time.Second,
		// The events stream rolls its own write deadline forward per
		// line; this bounds everything else.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// The spawn-under-test helper: a harness that started us on :0
	// learns the real port from the addr file (written atomically so a
	// poller never reads a partial address).
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			logger.Error("write addr file failed", "path", *addrFile, "err", err)
			os.Exit(1)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("serving campaign API", "addr", ln.Addr().String(), "cluster", *clusterMode, "maxjobs", *maxJobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Info("signal received, draining jobs", "budget", *drain)
	h.beginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drained := h.drainJobs(dctx, settleBudget(*drain))
	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	srv.Shutdown(sctx)
	if drained {
		logger.Info("all jobs drained, exiting")
	} else {
		logger.Warn("drain budget exhausted; interrupted jobs left journaled for recovery")
	}
	if wh != nil {
		if err := wh.Close(); err != nil {
			logger.Warn("warehouse snapshot write failed; next start reconciles from the journals", "err", err)
		}
	}
}

// writeAddrFile publishes the resolved listen address via temp file
// and rename, so harness pollers never observe a torn write.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runOnce is the scriptable batch mode: load a spec, run it to
// completion, write the aggregate.
func runOnce(ctx context.Context, eng campaign.Engine, specPath string, asJSON bool, out io.Writer) error {
	if specPath == "" {
		return fmt.Errorf("-once needs -spec file.json")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec campaign.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse %s: %v", specPath, err)
	}
	agg, err := eng.Run(ctx, spec)
	if err != nil {
		return err
	}
	return campaign.WriteAggregate(out, agg, asJSON)
}

// Job states reported by the status endpoints.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// job is one submitted campaign and its lifecycle. What it holds
// depends on where it settles (see ARCHITECTURE.md, "Result event
// flow"):
//
//   - a job that runs in this process has its spec, Progress,
//     aggregator and hub: status polls read the aggregator's counters,
//     event subscribers follow the hub. At settle it freezes the
//     counters into tally, releases the aggregator, and keeps its
//     final aggregate (done jobs) and the hub's backlog;
//   - a terminal job restored at start-up is a header: id, name,
//     state, error, grid size and tally. It has no spec, Progress,
//     aggregator or hub; its results and events are read back from its
//     journal on each request (server.journaled).
type job struct {
	id    string
	name  string
	cells int
	// spec, prog and agg are set while the job can run; agg is nil once
	// it settles, spec and prog are nil/zero for a recovered header.
	spec campaign.Spec
	prog *campaign.Progress
	agg  *campaign.Aggregator
	// hub carries the job's events; nil for a recovered header.
	hub     *hub
	journal *jobstore.Journal // nil without -datadir
	// wh indexes the job's terminal results for /campaigns/query; nil
	// when the warehouse is disabled.
	wh     *warehouse.Warehouse
	cancel context.CancelFunc
	done   chan struct{}
	// log is the server's logger; logger() adds the job attribute.
	log *slog.Logger
	// span is the job's root tracing span (finished in settle) and col
	// the collector every span on the job's trace lands in — including
	// the worker-side spans the coordinator records — backing
	// GET /campaigns/{id}/trace. Both nil for recovered terminal jobs.
	span *tracing.Span
	col  *tracing.Collector
	// abandoned marks a drain-interrupted job: the runner closes the
	// journal without a terminal marker so a restart resumes it.
	abandoned atomic.Bool

	mu     sync.Mutex
	state  string
	errMsg string
	// tally is the fold's counters once the job is terminal: frozen at
	// settle, or counted from the journal at recovery.
	tally campaign.Stats
	// aggFinal is the aggregate of a done job settled in this process;
	// nil for a recovered header, whose aggregate is read on demand.
	aggFinal *campaign.Aggregate
	started  time.Time
	finished time.Time
}

// settledDone is the done channel of every recovered terminal job:
// there is no runner to wait for.
var settledDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Status is the wire form of a job's state. While the job runs, the
// coverage block is the live partial fold and the timing block is
// derived from the engine's Progress timestamps.
type Status struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	State    string  `json:"state"`
	Cells    int     `json:"cells"`
	Done     int64   `json:"done"`
	Fraction float64 `json:"fraction"`
	Error    string  `json:"error,omitempty"`
	// ElapsedNS is wall-clock time since submission (until finish for
	// terminal states).
	ElapsedNS int64 `json:"elapsed_ns"`
	// RunElapsedNS is wall-clock time since the engine picked the job
	// up (zero while queued, frozen at completion); CellsPerSec and
	// ETANS are the simulation rate and the estimated remaining time,
	// both derived from the engine's Progress timestamps. Cells
	// recovered from the journal count toward Done but not the rate.
	RunElapsedNS int64   `json:"run_elapsed_ns,omitempty"`
	CellsPerSec  float64 `json:"cells_per_sec,omitempty"`
	ETANS        int64   `json:"eta_ns,omitempty"`
	// Faults, Detected, Coverage and CellErrors are the live partial
	// aggregate: the fold over the cells completed so far.
	Faults     int     `json:"faults"`
	Detected   int     `json:"detected"`
	Coverage   float64 `json:"coverage"`
	CellErrors int     `json:"cell_errors,omitempty"`
}

// logger returns the job's logger, or a silent one for jobs built
// outside the server paths (tests). The job attribute is attached per
// call rather than once per job: job lines are rare (resume, settle,
// journal errors), and a restart recovers every journaled job.
func (j *job) logger() *slog.Logger {
	if j.log != nil {
		return j.log.With("job", j.id)
	}
	return obs.NopLogger()
}

// publishRates pushes the job's live simulation rate and ETA into its
// registry gauge series and returns them. The gauges are the single
// source of truth for these numbers: the status endpoint reads the
// same series a /metrics scrape exports.
func (j *job) publishRates() (rate, eta *obs.Gauge) {
	rate = metJobRate.With(j.id)
	eta = metJobETA.With(j.id)
	rate.Set(j.prog.Rate())
	eta.Set(float64(j.prog.ETA().Nanoseconds()))
	return rate, eta
}

func (j *job) status() Status {
	// A recovered header never ran here: its rate and ETA are 0, and it
	// publishes no gauge series.
	var rate, eta float64
	var runElapsed time.Duration
	var done int64
	if j.prog != nil {
		rg, eg := j.publishRates()
		rate, eta = rg.Value(), eg.Value()
		runElapsed = j.prog.Elapsed()
		done = j.prog.Done()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st := j.tally
	if j.agg != nil {
		st = j.agg.Stats()
	}
	// The aggregator leads Progress for a journal-recovered job that
	// hasn't re-entered the engine yet; take whichever is ahead.
	if n := int64(st.Cells); n > done {
		done = n
	}
	fraction := 1.0
	if j.cells > 0 {
		fraction = float64(done) / float64(j.cells)
	}
	// Coverage of an empty fold is undefined, not perfect: report 0
	// until the first faults land so pollers see a monotonic value
	// instead of 1.0 regressing to the real number.
	coverage := 0.0
	if st.Faults > 0 {
		coverage = st.CoverageFraction()
	}
	return Status{
		ID:           j.id,
		Name:         j.name,
		State:        j.state,
		Cells:        j.cells,
		Done:         done,
		Fraction:     fraction,
		Error:        j.errMsg,
		ElapsedNS:    end.Sub(j.started).Nanoseconds(),
		RunElapsedNS: runElapsed.Nanoseconds(),
		CellsPerSec:  rate,
		ETANS:        int64(eta),
		Faults:       st.Faults,
		Detected:     st.Detected,
		Coverage:     coverage,
		CellErrors:   st.Errors,
	}
}

// server owns the job table and implements the HTTP API.
type server struct {
	engine campaign.Engine
	mux    *http.ServeMux
	// handler is the instrumented mux (request counters and latency
	// histograms per normalized route); ServeHTTP delegates to it.
	handler http.Handler
	log     *slog.Logger
	store   *jobstore.Store // nil without -datadir
	// coord dispatches cells to remote workers instead of running the
	// engine locally; nil without -cluster.
	coord *cluster.Coordinator
	// wh is the indexed result warehouse behind GET /campaigns/query;
	// nil without -datadir or when its snapshot cannot be read.
	wh *warehouse.Warehouse
	// slots bounds concurrently running campaigns; a submitted job
	// stays queued until it acquires a slot.
	slots chan struct{}
	// draining rejects new submissions during graceful shutdown.
	draining atomic.Bool

	mu   sync.Mutex
	seq  int
	jobs map[string]*job
}

func newServer(eng campaign.Engine, maxJobs int, store *jobstore.Store, coord *cluster.Coordinator, logger *slog.Logger) *server {
	return newServerWith(eng, maxJobs, store, coord, nil, logger)
}

// newServerWith is newServer plus the result warehouse. Start-up reads
// the journal set once: wh is reconciled against the recovered jobs
// before recovery resumes any of them, so index repairs never race
// live ingest.
func newServerWith(eng campaign.Engine, maxJobs int, store *jobstore.Store, coord *cluster.Coordinator, wh *warehouse.Warehouse, logger *slog.Logger) *server {
	if maxJobs < 1 {
		maxJobs = 1
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &server{
		engine: eng,
		log:    logger,
		store:  store,
		coord:  coord,
		wh:     wh,
		jobs:   make(map[string]*job),
		mux:    http.NewServeMux(),
		slots:  make(chan struct{}, maxJobs),
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("/campaigns", s.campaigns)
	s.mux.HandleFunc("/campaigns/", s.campaign)
	if coord != nil {
		s.mux.Handle("/cluster/", coord)
	}
	obs.Mount(s.mux, obs.Default())
	registerGatherHook(s)
	s.handler = obs.Instrument("twmd", s.mux, routePattern)
	if store == nil {
		return s
	}
	jobs, err := store.Recover()
	if err != nil {
		s.log.Error("journal recovery failed", "err", err)
		return s
	}
	s.reconcileWarehouse(jobs)
	s.recover(jobs)
	return s
}

// activeServer is the server whose derived gauges the registry's
// gather hook publishes. A process runs one server; tests that build
// several must not leave a stale one republishing evicted series, so
// the hook always follows the newest.
var (
	gatherHookOnce sync.Once
	activeServer   atomic.Pointer[server]
)

// registerGatherHook makes s the publisher behind the default
// registry's gather hook (registered once per process).
func registerGatherHook(s *server) {
	activeServer.Store(s)
	gatherHookOnce.Do(func() {
		obs.Default().OnGather(func() {
			if cur := activeServer.Load(); cur != nil {
				cur.publishMetrics()
			}
		})
	})
}

// routePattern collapses request paths into a bounded route-label set
// so per-job ids and probe paths can't blow up /metrics cardinality.
func routePattern(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/campaigns":
		return "/campaigns"
	case strings.HasPrefix(p, "/campaigns/"):
		rest := strings.Trim(strings.TrimPrefix(p, "/campaigns/"), "/")
		if rest == "query" {
			return "/campaigns/query"
		}
		_, sub, _ := strings.Cut(rest, "/")
		switch sub {
		case "results", "cancel", "events", "trace":
			return "/campaigns/{id}/" + sub
		case "":
			return "/campaigns/{id}"
		}
		return "/campaigns/{id}/other"
	case strings.HasPrefix(p, "/cluster/"):
		switch p {
		case "/cluster/lease", "/cluster/renew", "/cluster/complete", "/cluster/workers", "/cluster/chaos":
			return p
		}
		return "/cluster/other"
	case strings.HasPrefix(p, "/debug/"):
		return "/debug/*"
	case p == "/metrics", p == "/healthz":
		return p
	}
	return "other"
}

// publishMetrics refreshes the derived gauges — per-job rate and ETA
// plus the jobs-by-state breakdown — so every /metrics scrape reads
// current values. Registered as the default registry's gather hook.
func (s *server) publishMetrics() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	counts := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0,
		StateFailed: 0, StateCanceled: 0,
	}
	for _, j := range jobs {
		if j.prog != nil {
			j.publishRates()
		}
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	for st, n := range counts {
		metJobsByState.With(st).Set(float64(n))
	}
}

// recover rebuilds the job table from the store's recovered jobs:
// terminal jobs (done with a complete WAL, failed or canceled) are
// restored as headers, whose results and events journaled reads back
// on demand — byte-identical, since cell results are pure functions of
// the spec; interrupted jobs re-enter the run queue with their
// journaled cells pre-folded so only the remainder simulates.
func (s *server) recover(jobs []jobstore.Job) {
	// Bump the id sequence past every directory in the store — also
	// the unrecoverable ones Recover skips — so a fresh submission can
	// never collide with a leftover journal directory and end up
	// running unjournaled.
	if ids, err := s.store.IDs(); err == nil {
		for _, id := range ids {
			if n, ok := strings.CutPrefix(id, "c"); ok {
				if v, err := strconv.Atoi(n); err == nil && v > s.seq {
					s.seq = v
				}
			}
		}
	}
	for _, rec := range jobs {
		cells, err := rec.Spec.Cells()
		if err != nil {
			s.jobs[rec.ID] = s.header(rec, StateFailed, fmt.Sprintf("journal recovery: %v", err), campaign.Stats{})
			continue
		}
		seeded := walCells(rec.Done, cells)
		switch {
		case rec.State == StateDone && len(seeded) == len(cells):
			s.jobs[rec.ID] = s.header(rec, StateDone, "", tallyOf(seeded))
		case rec.State == StateFailed || rec.State == StateCanceled:
			s.jobs[rec.ID] = s.header(rec, rec.State, rec.Err, tallyOf(seeded))
		default:
			// Interrupted, or a "done" marker with an incomplete WAL.
			s.resume(rec, seeded)
		}
	}
}

// resume puts an interrupted job back in the run queue with its
// journaled cells pre-folded, reopening its journal so newly simulated
// cells append.
func (s *server) resume(rec jobstore.Job, seeded []campaign.CellResult) {
	j := &job{
		id:      rec.ID,
		name:    rec.Spec.Name,
		spec:    rec.Spec,
		cells:   rec.Spec.CellCount(),
		prog:    &campaign.Progress{},
		agg:     campaign.NewAggregator(rec.Spec),
		hub:     newHub(),
		wh:      s.wh,
		done:    make(chan struct{}),
		log:     s.log,
		state:   StateQueued,
		started: time.Now(),
	}
	for _, r := range seeded {
		j.agg.Add(r)
	}
	j.hub.seed(seeded)
	s.jobs[j.id] = j
	jn, err := s.store.Reopen(rec.ID)
	if err != nil {
		j.logger().Warn("reopen journal failed, job will run unjournaled", "err", err)
	} else {
		j.journal = jn
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	// Resume the job's journaled trace: the new root span is a remote
	// child of the pre-restart one, so the submitter's trace id spans
	// the crash. A missing or corrupt trace file starts a fresh trace.
	j.col = tracing.NewCollector(jobCollectorCap)
	ctx = tracing.ContextWithCollector(ctx, j.col)
	parent, _ := tracing.ParseTraceParent(rec.TraceParent)
	ctx, j.span = tracing.StartRemote(ctx, "job", tracing.KindInternal, parent)
	j.span.SetAttr("job", j.id)
	j.span.SetAttr("resumed", "true")
	j.logger().Info("recovered job, resuming", "journaled", len(seeded), "cells", j.cells)
	s.run(ctx, j)
}

// header builds the table entry of a recovered terminal job: the
// header alone, its cells left in the journal.
func (s *server) header(rec jobstore.Job, state, errMsg string, tally campaign.Stats) *job {
	now := time.Now()
	return &job{
		id:       rec.ID,
		name:     rec.Spec.Name,
		cells:    rec.Spec.CellCount(),
		done:     settledDone,
		log:      s.log,
		state:    state,
		errMsg:   errMsg,
		tally:    tally,
		started:  now,
		finished: now,
	}
}

// walCells returns the journaled results recovery keeps, in WAL order:
// the same validation the engine would apply — only clean results
// matching the spec's own expansion, each cell once. A corrupt entry is
// dropped and its cell re-simulates; so is any errored cell — a
// deterministic failure reproduces identically, and a cancellation
// artifact from an older binary must not be resurrected as a real
// result.
func walCells(wal []campaign.CellResult, cells []campaign.Cell) []campaign.CellResult {
	seen := make([]bool, len(cells))
	var kept []campaign.CellResult
	for _, r := range wal {
		if r.Err == "" && r.Index >= 0 && r.Index < len(cells) && r.Cell == cells[r.Index] && !seen[r.Index] {
			seen[r.Index] = true
			kept = append(kept, r)
		}
	}
	return kept
}

// tallyOf counts what an aggregator folding the clean results rs would
// report in its Stats.
func tallyOf(rs []campaign.CellResult) campaign.Stats {
	st := campaign.Stats{Cells: len(rs)}
	for _, r := range rs {
		st.Faults += r.Faults
		st.Detected += r.Detected
	}
	return st
}

// journaled reads a recovered header's journal back — one Store.Load —
// through recovery's validation, and returns the spec and the cells
// recovery kept, in WAL order. A journal that no longer holds what
// recovery counted (removed, or rewritten behind the server's back)
// fails the read rather than serving other bytes.
func (s *server) journaled(j *job) (campaign.Spec, []campaign.CellResult, error) {
	rec, err := s.store.Load(j.id)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	cells, err := rec.Spec.Cells()
	if err != nil {
		return campaign.Spec{}, nil, fmt.Errorf("journal recovery: %v", err)
	}
	kept := walCells(rec.Done, cells)
	if tallyOf(kept) != j.tally {
		return campaign.Spec{}, nil, fmt.Errorf("journal of %s no longer holds the cells recovered at start-up", j.id)
	}
	return rec.Spec, kept, nil
}

// journalReadFailed answers a request whose journal read failed. A job
// evicted meanwhile answers as a request after the eviction would;
// otherwise the journal changed behind the server's back.
func (s *server) journalReadFailed(w http.ResponseWriter, j *job, err error) {
	s.mu.Lock()
	evicted := s.jobs[j.id] != j
	s.mu.Unlock()
	if evicted {
		writeErr(w, http.StatusNotFound, "no campaign %q", j.id)
		return
	}
	j.logger().Warn("journal read failed", "err", err)
	writeErr(w, http.StatusInternalServerError, "campaign %s: read journal: %v", j.id, err)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// campaigns handles the collection: POST submits, GET lists.
func (s *server) campaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.mu.Lock()
		list := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			list = append(list, j)
		}
		s.mu.Unlock()
		out := make([]Status, 0, len(list))
		for _, j := range list {
			out = append(out, j.status())
		}
		// Job ids are c1, c2, ... — sort by submission order.
		sort.Slice(out, func(a, b int) bool {
			if len(out[a].ID) != len(out[b].ID) {
				return len(out[a].ID) < len(out[b].ID)
			}
			return out[a].ID < out[b].ID
		})
		writeJSON(w, http.StatusOK, out)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining for shutdown")
		return
	}
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "parse spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		name:    spec.Name,
		spec:    spec,
		cells:   spec.CellCount(),
		prog:    &campaign.Progress{},
		agg:     campaign.NewAggregator(spec),
		hub:     newHub(),
		wh:      s.wh,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		started: time.Now(),
	}
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("c%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.log = s.log

	if s.store != nil {
		jn, err := s.store.Create(j.id, spec)
		if err != nil {
			j.logger().Warn("journal create failed, job will run unjournaled", "err", err)
		} else {
			j.journal = jn
		}
	}
	// The job's root span continues the submitter's trace: the request
	// context carries the Instrument server span (itself continuing any
	// inbound traceparent), and the job span becomes its child even
	// though the job outlives the request. The traceparent is journaled
	// so a restart resumes the same trace.
	j.col = tracing.NewCollector(jobCollectorCap)
	ctx = tracing.ContextWithCollector(ctx, j.col)
	var remote tracing.SpanContext
	if sp := tracing.SpanFromContext(r.Context()); sp != nil {
		remote = sp.Context()
	}
	ctx, j.span = tracing.StartRemote(ctx, "job", tracing.KindInternal, remote)
	j.span.SetAttr("job", j.id)
	j.span.SetAttr("cells", strconv.Itoa(j.cells))
	if s.store != nil {
		if err := s.store.WriteTrace(j.id, j.span.Context().TraceParent()); err != nil {
			j.logger().Warn("journal trace write failed; a restart starts a fresh trace", "err", err)
		}
	}
	s.run(ctx, j)

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      j.id,
		"cells":   j.cells,
		"status":  path.Join("/campaigns", j.id),
		"results": path.Join("/campaigns", j.id, "results"),
		"events":  path.Join("/campaigns", j.id, "events"),
		"trace":   path.Join("/campaigns", j.id, "trace"),
	})
}

// run starts the job's runner goroutine: wait for a slot, stream the
// campaign into the job's aggregator, hub and journal, and settle the
// terminal state.
func (s *server) run(ctx context.Context, j *job) {
	go func() {
		defer close(j.done)
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		case <-ctx.Done():
			j.settle(StateCanceled, ctx.Err().Error(), nil)
			return
		}
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		sinks := []campaign.Sink{j.hub}
		if j.journal != nil {
			sinks = append(sinks, j.journal)
		}
		if j.wh != nil {
			// Stream completed cells into the warehouse as they finish,
			// so a settled job's results are queryable without a backfill
			// scan. The journal sink precedes this one: a cell is always
			// WAL-durable before it is index-visible.
			sinks = append(sinks, j.wh.Ingester(j.id))
		}
		var agg *campaign.Aggregate
		var err error
		if s.coord != nil {
			// Cluster mode: lease the cells to workers. Completions flow
			// through the same aggregator, hub, and journal; scheduling
			// events land in the journal's dispatch side log.
			var events func(cluster.Event)
			if j.journal != nil {
				events = func(ev cluster.Event) { j.journal.Dispatch(ev) }
			}
			agg, err = s.coord.Dispatch(ctx, j.id, j.spec, j.prog, j.agg, events, sinks...)
		} else {
			agg, err = s.engine.Stream(ctx, j.spec, j.prog, j.agg, sinks...)
		}
		if j.journal != nil {
			if jerr := j.journal.Err(); jerr != nil {
				j.logger().Warn("journal write error", "err", jerr)
			}
		}
		switch {
		case err == nil:
			j.settle(StateDone, "", agg)
		case ctx.Err() != nil:
			j.settle(StateCanceled, err.Error(), nil)
		default:
			j.settle(StateFailed, err.Error(), nil)
		}
	}()
}

// settle records the job's terminal state, closes the event stream,
// and finishes the journal. The aggregator's counters are frozen into
// the tally and the aggregator itself released: the final aggregate
// and the hub's backlog are all a settled job serves. An abandoned
// (drain-interrupted) job skips the terminal marker so a restart
// resumes it from the WAL.
func (j *job) settle(state, errMsg string, agg *campaign.Aggregate) {
	j.mu.Lock()
	j.finished = time.Now()
	j.state, j.errMsg, j.aggFinal = state, errMsg, agg
	j.tally = j.agg.Stats()
	j.agg = nil
	j.mu.Unlock()
	switch state {
	case StateDone:
		j.span.SetStatus(tracing.StatusOK)
	case StateCanceled:
		j.span.SetStatus(tracing.StatusCanceled)
	default:
		j.span.SetStatus(tracing.StatusError)
	}
	j.span.Finish()
	j.hub.close()
	if errMsg != "" {
		j.logger().Warn("job settled", "state", state, "err", errMsg)
	} else {
		j.logger().Info("job settled", "state", state)
	}
	if j.journal != nil {
		var err error
		if j.abandoned.Load() {
			err = j.journal.Close()
		} else {
			err = j.journal.Finish(state, errMsg)
		}
		if err != nil {
			j.logger().Warn("journal finish failed", "err", err)
		}
	}
	// Index after the journal's terminal marker is down: if the process
	// dies between the two, startup reconcile replays this step from
	// the journal instead of trusting a half-updated index.
	if !j.abandoned.Load() {
		j.indexSettled(state, agg)
	}
}

// beginDrain stops accepting submissions.
func (s *server) beginDrain() { s.draining.Store(true) }

// settleBudget bounds the post-cancel wait of drainJobs: a fraction of
// the drain budget, so shutdown overruns the operator's -drain by a
// proportionate amount at worst, never a fixed constant larger than
// the budget itself.
func settleBudget(drain time.Duration) time.Duration {
	settle := drain / 5
	if settle < 200*time.Millisecond {
		settle = 200 * time.Millisecond
	}
	if settle > 5*time.Second {
		settle = 5 * time.Second
	}
	return settle
}

// drainJobs waits for running jobs to finish within ctx's budget.
// Queued jobs are abandoned immediately (they have simulated nothing);
// when the budget runs out, running jobs are abandoned too — canceled
// without a terminal journal marker, so a journaled restart resumes
// them from their completed cells, then given settle to observe the
// cancellation. Reports whether every job reached a terminal state by
// itself.
func (s *server) drainJobs(ctx context.Context, settle time.Duration) bool {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		queued := j.state == StateQueued
		j.mu.Unlock()
		if queued && j.cancel != nil {
			j.abandoned.Store(true)
			j.cancel()
		}
	}
	drained := true
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			drained = false
		}
		if !drained {
			break
		}
	}
	if !drained {
		for _, j := range jobs {
			j.abandoned.Store(true)
			if j.cancel != nil {
				j.cancel()
			}
		}
		// Cancellation latency is bounded (the engine observes ctx
		// between fault batches); give it a moment to settle.
		deadline := time.After(settle)
		for _, j := range jobs {
			select {
			case <-j.done:
			case <-deadline:
				return false
			}
		}
	}
	return drained
}

// campaign routes /campaigns/{id}[/results|/cancel|/events].
func (s *server) campaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/campaigns/"), "/")
	id, sub, _ := strings.Cut(rest, "/")
	// "query" can never collide with a job id: ids are always c<seq>.
	if id == "query" && sub == "" {
		s.query(w, r)
		return
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.status())
	case sub == "cancel" && r.Method == http.MethodPost:
		// A recovered terminal job has no runner; cancel is a no-op.
		if j.cancel != nil {
			j.cancel()
		}
		<-j.done // state is terminal once the runner goroutine exits
		writeJSON(w, http.StatusOK, j.status())
	case sub == "" && r.Method == http.MethodDelete:
		// Evict: cancel if still running, then drop the job (and its
		// aggregate and journal) so a long-lived daemon doesn't
		// accumulate results.
		if j.cancel != nil {
			j.cancel()
		}
		<-j.done
		// Snapshot the status before dropping the gauge series: status()
		// republishes them.
		st := j.status()
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		// Drop the evicted job's gauge series so a long-lived daemon's
		// exposition stays bounded by live jobs.
		metJobRate.Delete(id)
		metJobETA.Delete(id)
		if s.store != nil {
			if err := s.store.Remove(id); err != nil {
				s.log.Warn("evict journal failed", "job", id, "err", err)
			}
		}
		// Drop the evicted job's index entries too, so /campaigns/query
		// never serves results whose journal is gone.
		if s.wh != nil {
			if _, err := s.wh.RemoveJobID(id); err != nil {
				s.log.Warn("evict warehouse entries failed; reconcile will repair", "job", id, "err", err)
			}
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "results" && r.Method == http.MethodGet:
		s.results(w, r, j)
	case sub == "trace" && r.Method == http.MethodGet:
		s.trace(w, j)
	case sub == "events":
		s.events(w, r, j)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "%s /campaigns/%s/%s not supported", r.Method, id, sub)
	}
}

// trace serves GET /campaigns/{id}/trace: the job's span timeline —
// submit, dispatch, every lease, and the worker/cell spans shipped
// back in completions — as NDJSON in start order. Live jobs show the
// timeline so far; recovered terminal jobs (no collector) are empty.
func (s *server) trace(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if j.col == nil {
		return
	}
	tracing.Default().ExportNDJSON(w, j.col.Snapshot())
}

func (s *server) results(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	state, agg, errMsg := j.state, j.aggFinal, j.errMsg
	j.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		writeErr(w, http.StatusConflict, "campaign %s still %s (%d/%d cells)",
			j.id, state, j.prog.Done(), j.prog.Total())
	case StateDone:
		if agg == nil {
			// A recovered header: fold its journal again.
			spec, cells, err := s.journaled(j)
			if err != nil {
				s.journalReadFailed(w, j, err)
				return
			}
			g := campaign.NewAggregator(spec)
			for _, c := range cells {
				g.Add(c)
			}
			agg = g.Snapshot()
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, agg.Render())
			return
		}
		b, err := agg.Canonical()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "encode aggregate: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	default:
		writeErr(w, http.StatusGone, "campaign %s %s: %s", j.id, state, errMsg)
	}
}
