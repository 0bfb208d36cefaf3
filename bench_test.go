// Benchmark harness: one benchmark family per table and figure of the
// paper (IDs mirror the paper's artifacts). Each benchmark
// does the work the corresponding artifact reports and attaches the
// headline quantity as a custom metric, so `go test -bench .`
// regenerates the paper's numbers alongside wall-clock costs:
//
//	T1  Table 1   — ATMarch content trace
//	T2  Table 2   — closed-form complexity evaluation
//	T3  Table 3   — generated-test execution across word sizes
//	H1  headline  — 56%/19% totals for March C- at W=32
//	F1a Figure 1a — inter-word state traversal tracking
//	F1b Figure 1b — intra-word pattern condition tracking
//	X1  Sec. 4    — March U worked example (29N at W=8)
//	S5  Sec. 5    — fault-injection coverage campaigns
//	E1–E3         — online interference, signature flow and aliasing,
//	                ablations (extensions beyond the paper's artifacts)
package twmarch_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"twmarch/internal/bistctl"
	"twmarch/internal/campaign"
	"twmarch/internal/cluster"
	"twmarch/internal/complexity"
	"twmarch/internal/core"
	"twmarch/internal/diagnose"
	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/obs"
	"twmarch/internal/statecover"
	"twmarch/internal/symmetric"
	"twmarch/internal/tomt"
	"twmarch/internal/trace"
	"twmarch/internal/tracing"
	"twmarch/internal/word"

	"twmarch/internal/ecc"
)

// BenchmarkTable1Trace regenerates the Table 1 content rows (T1).
func BenchmarkTable1Trace(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March U"), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []trace.Row
	for i := 0; i < b.N; i++ {
		rows, err = trace.SymbolicContents(res.ATMarch)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable2ClosedForm evaluates the Table 2 formulas (T2).
func BenchmarkTable2ClosedForm(b *testing.B) {
	bm := march.MustLookup("March C-")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range complexity.Schemes() {
			if _, err := complexity.ClosedFormFor(s, bm, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3 executes the generated transparent tests of every
// Table 3 cell on a 64-word memory; the ops/word metric is the table
// entry (T3).
func BenchmarkTable3(b *testing.B) {
	const words = 64
	for _, testName := range complexity.Table3Tests {
		bm := march.MustLookup(testName)
		for _, width := range complexity.Table3Widths {
			for _, scheme := range complexity.Schemes() {
				name := fmt.Sprintf("%s/W%d/%s", sanitize(testName), width, sanitize(scheme.String()))
				b.Run(name, func(b *testing.B) {
					benchScheme(b, bm, scheme, words, width)
				})
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '[', ']':
			// skip
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func benchScheme(b *testing.B, bm *march.Test, scheme complexity.Scheme, words, width int) {
	cost, err := complexity.Constructive(scheme, bm, width)
	if err != nil {
		b.Fatal(err)
	}
	switch scheme {
	case complexity.Scheme2:
		codec, err := ecc.NewHamming(width, true)
		if err != nil {
			// W=128 data plus SEC-DED check bits exceeds the 128-bit
			// simulator word; the Table 3 entry comes from the closed
			// form (8W·N) which needs no execution.
			b.Skipf("TOMT at W=%d: %v", width, err)
		}
		data := memory.MustNew(words, width)
		data.Randomize(rand.New(rand.NewSource(1)))
		code := memory.MustNew(words, codec.CodewordWidth())
		if err := tomt.EncodeMemory(codec, data, code); err != nil {
			b.Fatal(err)
		}
		runner := tomt.NewRunner(codec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(code); err != nil {
				b.Fatal(err)
			}
		}
	default:
		var tst *march.Test
		if scheme == complexity.Scheme1 {
			s1, err := core.Scheme1(bm, width)
			if err != nil {
				b.Fatal(err)
			}
			tst = s1.Test
		} else {
			res, err := core.TWMTA(bm, width)
			if err != nil {
				b.Fatal(err)
			}
			tst = res.TWMarch
		}
		mem := memory.MustNew(words, width)
		mem.Randomize(rand.New(rand.NewSource(1)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := march.Run(tst, mem, march.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Detected() {
				b.Fatal("fault-free run mismatched")
			}
		}
	}
	b.ReportMetric(float64(cost.TCM), "TCM_ops/word")
	b.ReportMetric(float64(cost.TCP), "TCP_ops/word")
	b.ReportMetric(float64(cost.Total()), "total_ops/word")
}

// BenchmarkHeadline computes the paper's 56%/19% comparison (H1).
func BenchmarkHeadline(b *testing.B) {
	bm := march.MustLookup("March C-")
	var h complexity.HeadlineResult
	var err error
	for i := 0; i < b.N; i++ {
		h, err = complexity.Headline(bm, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*h.VsScheme1, "pct_vs_scheme1")
	b.ReportMetric(100*h.VsScheme2, "pct_vs_scheme2")
}

// BenchmarkFigure1aStateCoverage tracks the 18-state traversal of a
// word pair under TSMarch (F1a).
func BenchmarkFigure1aStateCoverage(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	complete := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memory.MustNew(4, 8)
		mem.Randomize(r)
		pc, err := statecover.TrackPair(res.TSMarch, mem,
			statecover.Site{Addr: 0, Bit: 3}, statecover.Site{Addr: 2, Bit: 5})
		if err != nil {
			b.Fatal(err)
		}
		if pc.Complete() {
			complete++
		}
	}
	if complete != b.N {
		b.Fatalf("Figure 1(a) conditions failed in %d/%d runs", b.N-complete, b.N)
	}
}

// BenchmarkFigure1bPatternCoverage tracks the intra-word written/read
// pattern conditions under the full TWMarch (F1b).
func BenchmarkFigure1bPatternCoverage(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memory.MustNew(2, 8)
		mem.Randomize(r)
		ic, err := statecover.TrackIntraPair(res.TWMarch, mem, 0, 1, 6)
		if err != nil {
			b.Fatal(err)
		}
		total += ic.ConditionsMet()
	}
	b.ReportMetric(float64(total)/float64(b.N), "conditions_met")
}

// BenchmarkSection4MarchU runs the paper's worked example: the
// transformation of March U at W=8 whose result is 29N (X1).
func BenchmarkSection4MarchU(b *testing.B) {
	bm := march.MustLookup("March U")
	var tcm int
	for i := 0; i < b.N; i++ {
		res, err := core.TWMTA(bm, 8)
		if err != nil {
			b.Fatal(err)
		}
		tcm = res.TCM()
	}
	b.ReportMetric(float64(tcm), "TCM_ops/word")
}

// BenchmarkS5Coverage runs the Section 5 fault-injection campaign:
// the complete fault population of a 3x4 memory against TWMarch (S5).
func BenchmarkS5Coverage(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		b.Fatal(err)
	}
	list := faults.EnumerateAll(3, 4)
	c := faultsim.Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: faultsim.DirectCompare, Seed: 1}
	var rep *faultsim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = faultsim.Run(c, list)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Coverage(), "coverage_pct")
	b.ReportMetric(float64(rep.Total), "faults")
}

// benchDetectsPath runs the S5 campaign workload through one of the
// two simulation paths. The pair below is the speedup headline of the
// lanes over the naive loop; the benchmark-regression gate
// (scripts/benchdiff) tracks both so a regression in either path — or
// a shrinking gap — fails CI.
func benchDetectsPath(b *testing.B, naive bool) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		b.Fatal(err)
	}
	list := faults.EnumerateAll(3, 4)
	c := faultsim.Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: faultsim.DirectCompare, Seed: 1, Naive: naive}
	var rep *faultsim.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = faultsim.Run(c, list)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Total), "faults")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Total), "ns/fault")
}

// BenchmarkDetectsNaive measures the naive one-shot loop: fresh
// memory, re-randomized contents and a full march per fault.
func BenchmarkDetectsNaive(b *testing.B) { benchDetectsPath(b, true) }

// BenchmarkDetectLane measures the bit-parallel lane path on the
// identical workload: up to 64 faults packed as bit-planes per replay
// (verdict-equivalent by the lane equivalence suite and fuzzer).
func BenchmarkDetectLane(b *testing.B) { benchDetectsPath(b, false) }

// BenchmarkDetectLaneSmallCells isolates the lane replay kernel on the
// cells small-memory campaigns are made of: every catalog test × widths
// 2, 4, 8 × both schemes (72 shapes) at 2–8 words in both detection
// modes, SAF+TF. The references are built before the timer, so ns/op
// is RunLanes alone — the kernel that BenchmarkS5Coverage and
// BenchmarkDetectLane time together with a reference build per op.
func BenchmarkDetectLaneSmallCells(b *testing.B) {
	type cell struct {
		ref  *faultsim.Reference
		list []faults.Fault
	}
	var cells []cell
	nFaults := 0
	for _, e := range march.Catalog() {
		bm := march.MustLookup(e.Name)
		for _, width := range []int{2, 4, 8} {
			twm, err := core.TWMTA(bm, width)
			if err != nil {
				b.Fatal(err)
			}
			s1, err := core.Scheme1(bm, width)
			if err != nil {
				b.Fatal(err)
			}
			for _, test := range []*march.Test{twm.TWMarch, s1.Test} {
				for words := 2; words <= 8; words++ {
					list, err := campaign.FaultList([]string{"SAF", "TF"}, faults.AllPairs, words, width)
					if err != nil {
						b.Fatal(err)
					}
					for _, mode := range []faultsim.DetectMode{faultsim.DirectCompare, faultsim.Signature} {
						ref, err := faultsim.NewReference(faultsim.Campaign{Test: test, Words: words, Width: width, Mode: mode, Seed: int64(len(cells))})
						if err != nil {
							b.Fatal(err)
						}
						cells = append(cells, cell{ref, list})
						nFaults += len(list)
					}
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := c.ref.RunLanes(c.list); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nFaults), "ns/fault")
}

// BenchmarkE1OnlineInterference measures the online scheduler under
// tight idle windows (E1).
func BenchmarkE1OnlineInterference(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 16)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := bistctl.New(res.TWMarch)
	if err != nil {
		b.Fatal(err)
	}
	var last bistctl.OnlineStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := memory.MustNew(32, 16)
		mem.Randomize(rand.New(rand.NewSource(4)))
		win := &bistctl.GeometricWindows{Mean: 1.2 * float64(ctl.SessionOps()*32), Rng: rand.New(rand.NewSource(5))}
		last, err = bistctl.SimulateOnline(ctl, mem, win, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*last.InterferenceProb(), "interference_pct")
}

// BenchmarkE2SignatureFlow times a full prediction/test/compare BIST
// session (E2).
func BenchmarkE2SignatureFlow(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March U"), 32)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := bistctl.New(res.TWMarch)
	if err != nil {
		b.Fatal(err)
	}
	mem := memory.MustNew(256, 32)
	mem.Randomize(rand.New(rand.NewSource(6)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ctl.Run(mem)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Pass {
			b.Fatal("clean memory failed")
		}
	}
	b.ReportMetric(float64(ctl.SessionOps()), "session_ops/word")
}

// BenchmarkE3AblationATMarch quantifies what ATMarch buys: intra-word
// CFid coverage with and without the added test (E3).
func BenchmarkE3AblationATMarch(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		b.Fatal(err)
	}
	list := faults.EnumerateCFid(2, 4, faults.IntraWordPairs)
	for _, tc := range []struct {
		name string
		test *march.Test
	}{
		{"TSMarchOnly", res.TSMarch},
		{"FullTWMarch", res.TWMarch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := faultsim.Campaign{Test: tc.test, Words: 2, Width: 4, Mode: faultsim.DirectCompare, Seed: 7}
			var rep *faultsim.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = faultsim.Run(c, list)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.Coverage(), "intraCFid_coverage_pct")
		})
	}
}

// BenchmarkTransform measures the transformation itself across widths.
func BenchmarkTransform(b *testing.B) {
	bm := march.MustLookup("March C-")
	for _, width := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("TWMTA/W%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TWMTA(bm, width); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Scheme1/W%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Scheme1(bm, width); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMISR measures the signature register's compression rate.
func BenchmarkMISR(b *testing.B) {
	for _, width := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("W%d", width), func(b *testing.B) {
			m := misr.MustNew(width)
			v := word.Word{Hi: 0xdeadbeef, Lo: 0x12345678}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Feed(v)
			}
		})
	}
}

// BenchmarkMemory measures the simulator's raw access rate.
func BenchmarkMemory(b *testing.B) {
	mem := memory.MustNew(1024, 32)
	v := word.FromUint64(0xa5a5a5a5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := i & 1023
		mem.Write(addr, v)
		if got := mem.Read(addr); got != v.Mask(32) {
			b.Fatal("readback mismatch")
		}
	}
}

// BenchmarkE4SymmetricSession compares the one-pass symmetric flow
// against the two-pass prediction flow on the same memory (E4).
func BenchmarkE4SymmetricSession(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 32)
	if err != nil {
		b.Fatal(err)
	}
	sym, err := symmetric.MakeSymmetric(res.TWMarch)
	if err != nil {
		b.Fatal(err)
	}
	mem := memory.MustNew(256, 32)
	mem.Randomize(rand.New(rand.NewSource(7)))
	b.Run("OnePassSymmetric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := symmetric.Session(sym, mem)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Pass {
				b.Fatal("clean memory failed")
			}
		}
		b.ReportMetric(float64(sym.Ops()), "session_ops/word")
	})
	b.Run("TwoPassPrediction", func(b *testing.B) {
		ctl, err := bistctl.New(res.TWMarch)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			out, err := ctl.Run(mem)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Pass {
				b.Fatal("clean memory failed")
			}
		}
		b.ReportMetric(float64(ctl.SessionOps()), "session_ops/word")
	})
}

// BenchmarkE9Diagnosis times the localize-and-classify pipeline (E9).
func BenchmarkE9Diagnosis(b *testing.B) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mem := memory.MustNew(64, 8)
		mem.Randomize(rand.New(rand.NewSource(3)))
		inj := faults.MustInject(mem, faults.StuckAt{Cell: faults.Site{Addr: 31, Bit: 5}, Value: 1})
		rep, err := diagnose.Locate(res.TWMarch, inj)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Class != diagnose.StuckAtSuspect {
			b.Fatal("diagnosis failed")
		}
	}
}

// campaignBenchSpec is the grid both campaign benchmarks run: 4 tests
// × 2 widths × 2 sizes × 2 schemes = 32 cells of fault injection.
func campaignBenchSpec() campaign.Spec {
	return campaign.Spec{
		Name:    "bench",
		Tests:   []string{"MATS", "MATS+", "March C-", "March U"},
		Widths:  []int{2, 4},
		Words:   []int{2, 3},
		Classes: []string{"SAF", "TF"},
		Seed:    1,
	}
}

func benchCampaign(b *testing.B, workers int) {
	spec := campaignBenchSpec()
	spec.Workers = workers
	ctx := context.Background()
	var agg *campaign.Aggregate
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err = campaign.Engine{}.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Errors != 0 {
			b.Fatalf("%d cells errored", agg.Errors)
		}
	}
	b.ReportMetric(float64(len(agg.Cells)), "cells")
	b.ReportMetric(float64(agg.Faults), "fault_injections")
	b.ReportMetric(100*agg.CoverageFraction(), "coverage_pct")
}

// BenchmarkCampaignSerial runs the campaign grid on one worker — the
// baseline the parallel engine is measured against.
func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel runs the same grid with workers=GOMAXPROCS;
// the per-op speedup over BenchmarkCampaignSerial is the engine's
// scaling headline (the two aggregates are byte-identical, see
// internal/campaign TestParallelMatchesSerial).
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, runtime.GOMAXPROCS(0)) }

// BenchmarkCampaignYield runs the campaign grid with the
// diagnosis-and-repair pipeline enabled: every fault additionally gets
// a full-syndrome diagnostic run, spare allocation and field-ECC
// classification. The per-op overhead versus BenchmarkCampaignParallel
// is the pipeline stage's cost; the custom metrics report the
// campaign's yield headline numbers.
func BenchmarkCampaignYield(b *testing.B) {
	spec := campaignBenchSpec()
	spec.Workers = runtime.GOMAXPROCS(0)
	spec.Pipeline = &campaign.PipelineSpec{
		Enabled:   true,
		SpareRows: 1,
		SpareCols: 1,
		ECC:       campaign.ECCSECDED,
	}
	ctx := context.Background()
	var agg *campaign.Aggregate
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err = campaign.Engine{}.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Errors != 0 {
			b.Fatalf("%d cells errored", agg.Errors)
		}
	}
	y := agg.YieldTotal
	if y == nil || y.Analyzed == 0 {
		b.Fatal("pipeline produced no yield stats")
	}
	b.ReportMetric(float64(y.Analyzed), "faults_analyzed")
	b.ReportMetric(100*y.RepairabilityRate(), "repairability_pct")
	b.ReportMetric(100*y.PostECCEscapeRate(), "post_ecc_escape_pct")
}

// BenchmarkAggregatorIncremental measures the streaming fold: one
// grid's worth of pre-simulated cell results pushed through the
// incremental Aggregator (Add per cell + final Snapshot) — the per-op
// cost every twmd event and journal replay pays. The simulation itself
// is hoisted out of the loop, so the number is the fold alone.
func BenchmarkAggregatorIncremental(b *testing.B) {
	spec := campaignBenchSpec()
	base, err := campaign.Engine{}.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := campaign.NewAggregator(spec)
		for _, r := range base.Cells {
			g.Add(r)
		}
		snap := g.Snapshot()
		if snap.Faults != base.Faults || len(snap.Cells) != len(base.Cells) {
			b.Fatal("incremental fold diverged")
		}
	}
	b.ReportMetric(float64(len(base.Cells)), "cells")
}

// BenchmarkClusterDispatch measures the cluster dispatch round trip
// on an in-process loopback: the campaign grid leased over HTTP to
// local workers, simulated, completed, and folded — versus
// BenchmarkCampaignParallel this is the wire + lease-queue overhead
// the coordinator adds per grid. scripts/benchdiff gates it so
// dispatch bookkeeping can't silently regress.
func BenchmarkClusterDispatch(b *testing.B) {
	coord := cluster.New(cluster.Options{IdleRetry: time.Millisecond})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		w := &cluster.Worker{
			Client:   &cluster.Client{Base: ts.URL, Worker: fmt.Sprintf("bench-w%d", i)},
			Parallel: 1,
			Poll:     time.Millisecond,
		}
		go w.Run(ctx)
	}
	spec := campaignBenchSpec()
	var agg *campaign.Aggregate
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err = coord.Dispatch(ctx, fmt.Sprintf("bench-%d", i), spec, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Errors != 0 {
			b.Fatalf("%d cells errored", agg.Errors)
		}
	}
	b.ReportMetric(float64(len(agg.Cells)), "cells_dispatched")
	b.ReportMetric(100*agg.CoverageFraction(), "coverage_pct")
}

// BenchmarkE10Characterization times one row of the catalog coverage
// matrix (E10).
func BenchmarkE10Characterization(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		ch, err := faultsim.Characterize([]string{"March C-"}, 4)
		if err != nil {
			b.Fatal(err)
		}
		cov, err = ch.Get("March C-", "CFid")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*cov, "CFid_coverage_pct")
}

// BenchmarkTracingHotPath measures one span lifecycle — start, an
// attr, finish — on the internal/tracing hot path. "sampled" pays the
// full cost including the ring write; "unsampled" is the early-out a
// fleet running -trace-sample 0 takes on every span, the number that
// has to stay negligible for tracing to be safe to leave wired in.
// scripts/benchdiff gates both.
func BenchmarkTracingHotPath(b *testing.B) {
	ctx := context.Background()
	b.Run("sampled", func(b *testing.B) {
		tr := tracing.New(tracing.Options{Sample: 1, Capacity: 1024})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := tr.Start(ctx, "bench", tracing.KindInternal)
			sp.SetAttr("cell", "7")
			sp.Finish()
		}
	})
	b.Run("unsampled", func(b *testing.B) {
		tr := tracing.New(tracing.Options{Sample: -1, Capacity: 1024})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := tr.Start(ctx, "bench", tracing.KindInternal)
			sp.SetAttr("cell", "7")
			sp.Finish()
		}
	})
}

// BenchmarkMetricsHotPath measures the internal/obs instrumentation
// primitives on their hot paths — counter increment, gauge set, and
// histogram observe on pre-resolved series — per iteration, the cost
// every simulated cell now pays. scripts/benchdiff gates it so the
// observability layer can't silently tax the engine.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "bench counter", "kind").With("hot")
	g := reg.Gauge("bench_level", "bench gauge").With()
	h := reg.Histogram("bench_duration_seconds", "bench histogram", nil).With()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
		g.Set(float64(i))
		h.Observe(0.003)
	}
	b.ReportMetric(3, "updates_per_op")
}
