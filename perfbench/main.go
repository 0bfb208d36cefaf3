// Command perfbench is the repository's end-to-end benchmark. It starts
// the real daemons from freshly built binaries (twmd, plus one twmw in
// cluster mode), drives one named workload closed loop from this single
// load-generating process, verifies every output, and prints each
// end-to-end metric by name, unit and sample count. With -trace 1 it
// also replays the workload's campaigns in-process through the public
// API of every layer, timing each call as a span, and prints the
// per-layer metrics instead.
//
//	bash perfbench/run.sh --workload local_small --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md
// for the workloads, the metrics and which layer moves which number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named number of a run's result.
type metric struct {
	name  string
	unit  string
	value float64
	// n is the sample count behind a timing (0 for counts and ratios).
	n int
}

// result is what one run measured and checked.
type result struct {
	ops    *tally
	e2e    []metric
	layers []metric
	// spans are the traced replay's spans (traced runs only).
	spans []span
}

func (r *result) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *result) addLayer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, unit, v, n})
}

// segmentCount is how many equal shares of its cells a window is split
// into for the throughput and CPU medians.
const segmentCount = 15

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, " ")
}

type config struct {
	root, build, bin string
	w                *workload
	seed             int64
	seconds          float64
	trace            bool
}

func main() {
	root := flag.String("root", ".", "repository checkout the binaries were built from")
	name := flag.String("workload", "", "workload to run: local_small, local_heavy, cluster_small, query_mix")
	seed := flag.Int64("seed", 1, "workload seed: the campaign list and query filters derive from it")
	seconds := flag.Float64("seconds", 30, "nominal measured window; sizes the campaign list")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	smoke := flag.Bool("smoke", false, "self-test: a short run of every workload, traced and untraced")
	flag.Parse()

	cfg := config{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1}
	cfg.build = filepath.Join(cfg.root, ".bench_build")
	cfg.bin = filepath.Join(cfg.build, "bin")
	ctx := context.Background()
	if *smoke {
		if err := selfTest(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench self-test:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench self-test passed")
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.w = w
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(res, cfg.trace)
}

// stealLimit is the share of the host's CPU time the hypervisor may
// steal during the window. Quiet windows read under 1% and isolated
// bursts 2–4%, which cost a window about their share against bounds of
// 15–25%; contention episodes read 6–26%. Above the limit the figures
// are not comparable to the bounds, so an untraced run refuses to
// report them.
const stealLimit = 0.05

// run measures one workload end to end and, when tracing, replays it
// in-process.
func run(ctx context.Context, cfg config) (*result, error) {
	w := cfg.w
	res := &result{ops: &tally{}}
	runDir := filepath.Join(cfg.build, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	headline(res.ops)

	list := w.campaignList(cfg.seed, cfg.seconds)
	warm := w.list(^cfg.seed, w.clients)
	datadir := filepath.Join(runDir, "data")
	var corp *corpus
	if w.corpus {
		var err error
		if corp, err = loadCorpus(cfg.build); err != nil {
			return nil, err
		}
		if err := corp.workingCopy(datadir); err != nil {
			return nil, fmt.Errorf("corpus working copy: %v", err)
		}
	}

	var setups []float64
	var f *fleet
	for k := 0; k < w.setups; k++ {
		var d time.Duration
		var err error
		if f, d, err = startFleet(ctx, w, cfg.bin, runDir, datadir); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < w.setups-1 {
			f.stop()
		}
	}
	defer f.stop()

	// Warm-up: a campaign per client (and a few reads) off the books, so
	// connection set-up and first-touch page faults are not measured.
	qs := readerQueries(cfg.seed, 60)
	wd := &loadGen{base: f.base, lat: newSamples(), ops: res.ops}
	wd.runClients(ctx, w.clients, warm, nil)
	if w.corpus {
		hc := newConnClient()
		for _, q := range qs[:3] {
			wd.query(ctx, hc, cloneQuery(q), "", time.Time{})
		}
		hc.CloseIdleConnections()
	}
	if err := f.collect(); err != nil {
		return nil, err
	}
	runtime.GC()
	d := &loadGen{base: f.base, lat: newSamples(), ops: res.ops}
	if !w.corpus {
		d.queryLat = "query_ms"
	}
	c0, err := f.readCounters()
	if err != nil {
		return nil, err
	}
	// A window that falls far behind its nominal rate still ends in time.
	wctx, cancel := context.WithTimeout(ctx, time.Duration(math.Max(30, 3*cfg.seconds))*time.Second)
	defer cancel()
	var answers []answered
	readerDone := make(chan struct{})
	if w.corpus {
		d.progress = make(chan time.Time, len(list)) // one send per campaign, never blocks
		go func() {
			defer close(readerDone)
			answers = d.runReader(wctx, qs, len(list)*readsPer3Campaigns/3, d.progress)
		}()
	} else {
		close(readerDone)
	}
	seg, err := newSegments(f, list, segmentCount)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostCPU()
	done, elapsed := d.runClients(wctx, w.clients, list, seg)
	<-readerDone
	steal1, total1 := hostCPU()
	stolen := float64(steal1-steal0) / math.Max(1, float64(total1-total0))
	if seg.err != nil {
		return nil, seg.err
	}
	u1, err := f.usage()
	if err != nil {
		return nil, err
	}
	c1, err := f.readCounters()
	if err != nil {
		return nil, err
	}
	f.stop()
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the window\n", 100*stolen)
	if stolen > stealLimit && !cfg.trace {
		return nil, fmt.Errorf("host contended: the hypervisor stole %.1f%% of CPU time during the window (limit %.0f%%); no figures reported",
			100*stolen, 100*stealLimit)
	}
	if wctx.Err() != nil {
		res.ops.fail(fmt.Sprintf("window cut at %v before the campaign list finished", elapsed.Round(time.Second)))
	}

	tv := time.Now()
	verifySettled(ctx, w, list, done, res.ops)
	for _, a := range answers {
		err := corp.verifyAnswer(a)
		res.ops.check(err == nil, fmt.Sprint(err))
	}
	verifyTime := time.Since(tv)

	cells := 0
	for _, s := range done {
		if s != nil {
			cells += s.cells
		}
	}
	if cells == 0 {
		return nil, fmt.Errorf("no campaign settled: %v", res.ops.msgs)
	}
	perSec, cpuPerCell := seg.rates()
	fmt.Printf("window: %d campaigns, %d cells in %.2fs; fleet CPU %.2fs; verified in %.2fs\n",
		len(list), cells, elapsed.Seconds(), (u1.cpu - seg.bounds[0].use.cpu).Seconds(), verifyTime.Seconds())
	fmt.Printf("segments: cells/s %s; CPU us/cell %s\n", fmtList(perSec), fmtList(cpuPerCell))
	camp := d.lat.get("campaign_ms")
	query := d.lat.get("query_ms")
	res.addE2E("setup_s", "s", median(setups), len(setups))
	res.addE2E("cells_per_s", "1/s", median(perSec), cells)
	res.addE2E("campaign_p50_ms", "ms", d.lat.segmentQuantile("campaign_ms", 0.5, seg.bounds), len(camp))
	res.addE2E("campaign_p90_ms", "ms", d.lat.segmentQuantile("campaign_ms", 0.9, seg.bounds), len(camp))
	res.addE2E("cpu_us_per_cell", "us", median(cpuPerCell), cells)
	res.addE2E("rss_peak_mb", "MB", float64(u1.hwmKiB)/1024, 0)
	res.addE2E("query_p50_ms", "ms", d.lat.segmentQuantile("query_ms", 0.5, seg.bounds), len(query))
	res.addE2E("query_p90_ms", "ms", d.lat.segmentQuantile("query_ms", 0.9, seg.bounds), len(query))

	dc := c1.sub(c0)
	for _, op := range []string{"submit", "settle_wait", "results", "evict"} {
		xs := d.lat.get(op + "_ms")
		res.addLayer("twmd."+op+"_ms", "ms", median(xs), len(xs))
	}
	res.addLayer("campaign.fault_cache_hit_frac", "ratio", dc.cacheHits/math.Max(1, dc.cacheHits+dc.cacheMisses), int(dc.cacheHits+dc.cacheMisses))
	res.addLayer("tracing.spans_per_cell", "count", dc.spansStarted/float64(cells), 0)
	res.addLayer("runtime.gc_per_kcell", "count", 1000*dc.gcCycles/float64(cells), 0)

	if cfg.trace {
		if err := replay(ctx, cfg, list, done, res); err != nil {
			return nil, fmt.Errorf("traced replay: %v", err)
		}
	}
	return res, nil
}

// report prints the human-readable table and, as the last line, the
// result object: end-to-end metrics untraced, per-layer ones traced.
func report(res *result, traced bool) {
	ops := res.ops
	fmt.Printf("operations: %d attempted, %d failed, op_error_rate %.6f\n",
		ops.attempted, ops.failed, float64(ops.failed)/math.Max(1, float64(ops.attempted)))
	for _, m := range ops.msgs {
		fmt.Println("  failure:", m)
	}
	show := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Printf("  %-32s %14.4f %-6s%s\n", m.name, m.value, m.unit, n)
		}
	}
	show("end-to-end:", res.e2e)
	out := res.e2e
	if traced {
		show("per-layer:", res.layers)
		out = res.layers
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(out))
	for _, m := range out {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = jm{v, m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   ops.failed == 0,
		"attempted": ops.attempted,
		"failed":    ops.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}
