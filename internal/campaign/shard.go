package campaign

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/tracing"
)

// CellResult is the outcome of simulating one grid cell. Failures are
// recorded in Err rather than aborting the campaign, so the aggregate
// stays a total function of the spec.
type CellResult struct {
	Cell
	// Faults and Detected count the cell's fault population and how
	// many the generated test caught.
	Faults   int `json:"faults"`
	Detected int `json:"detected"`
	// ByClass breaks detection down per fault class.
	ByClass map[string]ClassCount `json:"by_class,omitempty"`
	// TCM and TCP are the generated test and prediction lengths in
	// operations per address (the paper's units of N).
	TCM int `json:"tcm"`
	TCP int `json:"tcp"`
	// ClosedTCM and ClosedTCP are the paper's closed-form lengths for
	// the cell's scheme, for reconciliation against the measured ones.
	ClosedTCM int `json:"closed_tcm"`
	ClosedTCP int `json:"closed_tcp"`
	// DurationNS is wall-clock simulation time; it is zeroed by
	// Aggregate.Canonical so determinism checks ignore it.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Yield holds the diagnosis-and-repair pipeline outcome; nil when
	// the spec's pipeline stage is disabled.
	Yield *YieldStats `json:"yield,omitempty"`
	// Err records a per-cell failure.
	Err string `json:"error,omitempty"`
}

// ClassCount is a per-class detection tally.
type ClassCount struct {
	Total    int `json:"total"`
	Detected int `json:"detected"`
}

// Coverage returns the detected fraction (1 for an empty class).
func (c ClassCount) Coverage() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.Total)
}

// Shard splits the cell list into batches of at most batch cells,
// preserving grid order. batch ≤ 0 panics; Engine picks a default
// before calling.
func Shard(cells []Cell, batch int) [][]Cell {
	if batch <= 0 {
		panic(fmt.Sprintf("campaign: shard batch %d", batch))
	}
	var out [][]Cell
	for len(cells) > batch {
		out = append(out, cells[:batch])
		cells = cells[batch:]
	}
	if len(cells) > 0 {
		out = append(out, cells)
	}
	return out
}

// RunCell simulates one grid cell: it generates the cell's test with
// the selected scheme, enumerates the spec's fault population at the
// cell geometry, runs the fault-injection campaign and records
// detection counts plus op-count accounting. The result depends only
// on (spec, cell) — never on which worker ran it or when.
func RunCell(spec Spec, c Cell) CellResult {
	return runCell(context.Background(), spec.Normalized(), c, nil)
}

// Simulator runs single grid cells outside the engine — the worker
// side of cluster dispatch. Like one Engine.Stream run, it shares a
// single fault enumeration per memory geometry across calls (and, like
// every cell path, the process-wide compiled test programs), so a
// worker leasing many cells of the same campaign pays enumeration once
// per geometry. The cache is keyed by geometry alone: a Simulator is
// therefore tied to one spec's fault population — use a fresh
// Simulator per campaign, never across specs with different Classes or
// Scope. Safe for concurrent use.
type Simulator struct {
	cache faultCache
}

// NewSimulator returns an empty simulator.
func NewSimulator() *Simulator { return &Simulator{} }

// RunCell simulates one cell of the spec's grid, observing ctx between
// fault batches. The result is the same pure function of (spec, cell)
// the engine computes: identical bytes wherever the cell runs.
func (s *Simulator) RunCell(ctx context.Context, spec Spec, c Cell) CellResult {
	return runCell(ctx, spec.Normalized(), c, &s.cache)
}

// runCell expects a normalized spec. A non-nil cache shares one fault
// enumeration per memory geometry across the campaign's cells; ctx
// cancellation is observed between fault batches, not just between
// cells, so oversized cells cannot pin a canceled campaign. It is the
// single convergence point for engine and worker execution, so the
// per-cell tracing span — index, test, scheme, fault counts — is
// emitted here for both.
func runCell(ctx context.Context, spec Spec, c Cell, cache *faultCache) CellResult {
	start := time.Now()
	ctx, span := tracing.Start(ctx, "campaign.cell", tracing.KindInternal)
	span.SetAttr("cell", strconv.Itoa(c.Index))
	span.SetAttr("test", c.Test)
	span.SetAttr("scheme", c.Scheme)
	res := simulateCell(ctx, spec, c, cache)
	res.DurationNS = time.Since(start).Nanoseconds()
	span.SetAttr("faults", strconv.Itoa(res.Faults))
	span.SetAttr("detected", strconv.Itoa(res.Detected))
	if res.Err != "" {
		span.SetStatus(tracing.StatusError)
	}
	span.Finish()
	metCells.Inc()
	if res.Err != "" {
		metCellErrors.Inc()
	}
	metCellDur.Observe(time.Duration(res.DurationNS).Seconds())
	return res
}

// faultCache memoizes fault enumerations by memory geometry: every
// test/scheme/mode cell at the same (words, width) shares one list.
// Fault values are stateless (injection state lives in the wrapped
// memory), so a list is safe to share across workers. A nil cache
// enumerates on every call.
type faultCache struct {
	mu    sync.Mutex
	lists map[[2]int][]faults.Fault
}

// maxCachedLists bounds the cache: a grid spanning many geometries
// would otherwise retain every enumeration for the whole run.
const maxCachedLists = 64

func (fc *faultCache) faults(spec Spec, words, width int) ([]faults.Fault, error) {
	scope, err := PairScope(spec.Scope)
	if err != nil {
		return nil, err
	}
	if fc == nil {
		metCacheMisses.Inc()
		return FaultList(spec.Classes, scope, words, width)
	}
	key := [2]int{words, width}
	fc.mu.Lock()
	list, ok := fc.lists[key]
	fc.mu.Unlock()
	if ok {
		metCacheHits.Inc()
		return list, nil
	}
	metCacheMisses.Inc()
	// Enumerate outside the lock; concurrent workers may duplicate the
	// work for the same geometry, but the result is identical.
	list, err = FaultList(spec.Classes, scope, words, width)
	if err != nil {
		return nil, err
	}
	fc.mu.Lock()
	if fc.lists == nil {
		fc.lists = make(map[[2]int][]faults.Fault)
	}
	if len(fc.lists) < maxCachedLists {
		fc.lists[key] = list
	}
	fc.mu.Unlock()
	return list, nil
}

func simulateCell(ctx context.Context, spec Spec, c Cell, cache *faultCache) CellResult {
	res := CellResult{Cell: c}
	mode := faultsim.DirectCompare
	if c.Mode == ModeSignature {
		mode = faultsim.Signature
	}
	ct, err := programs.lookup(c, mode)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.TCM, res.TCP, res.ClosedTCM, res.ClosedTCP = ct.tcm, ct.tcp, ct.closedTCM, ct.closedTCP

	list, err := cache.faults(spec, c.Words, c.Width)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	cfg := faultsim.Campaign{
		Test:  ct.test,
		Words: c.Words,
		Width: c.Width,
		Mode:  mode,
		Seed:  c.Seed,
		Naive: spec.Naive,
	}
	res.ByClass = make(map[string]ClassCount)
	if spec.Pipeline.On() {
		// Pipeline-enabled cells take the per-fault path: detection
		// verdicts are identical to the batched loop below, plus the
		// diagnosis/repair/ECC outcome in res.Yield.
		simulatePipeline(ctx, spec, c, ct, cfg, list, &res)
		return res
	}
	// One fault-free reference per cell — the shared compiled program
	// bound to the cell's size and seed — used across the cell's whole
	// fault population on the bit-parallel lane path; spec.Naive falls
	// back to the one-shot per-fault loop (identical tallies, only
	// slower).
	runBatch := func(batch []faults.Fault) (*faultsim.Report, error) {
		return faultsim.Run(cfg, batch)
	}
	if !spec.Naive {
		ref, err := ct.bind(c.Words, c.Seed)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		runBatch = ref.RunLanes
	}
	// Simulate in batches so cancellation has bounded latency even for
	// a cell with millions of faults. Faults are independent, so the
	// merged tallies are identical to one faultsim.Run over the whole
	// list.
	const cancelBatch = 2048
	for lo := 0; lo < len(list); lo += cancelBatch {
		if err := ctx.Err(); err != nil {
			res.Err = err.Error()
			return res
		}
		hi := lo + cancelBatch
		if hi > len(list) {
			hi = len(list)
		}
		rep, err := runBatch(list[lo:hi])
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Faults += rep.Total
		res.Detected += rep.Detected
		for cls, s := range rep.ByClass {
			cc := res.ByClass[cls]
			cc.Total += s.Total
			cc.Detected += s.Detected
			res.ByClass[cls] = cc
		}
	}
	return res
}
