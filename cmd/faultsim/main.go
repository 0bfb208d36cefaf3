// Command faultsim runs fault-injection campaigns against the
// transparent word-oriented tests:
//
//	faultsim -test "March C-" -width 4 -words 4
//	faultsim -test "March U" -width 8 -words 3 -classes CFid,CFin -scope intra
//	faultsim -mode signature -width 16
//
// Every enumerated fault is injected into a memory with pseudo-random
// contents; the report shows per-class coverage of the generated
// TWMarch and, for comparison, of the Scheme 1 baseline. Simulation
// rides the bit-parallel lane path by default (the fault-free march is
// captured once and up to 64 faults replay against it per pass);
// -naive drops to the one-shot per-fault loop — results are identical
// on both paths.
//
// With -grid the single simulation becomes a campaign: the comma lists
// in -tests, -widths and -sizes span a grid that is fanned out over the
// internal/campaign worker-pool engine (the same engine cmd/twmd
// serves over HTTP):
//
//	faultsim -grid -tests "March C-,March U" -widths 4,8 -sizes 3,4
//
// With -progress the grid reports live completion to stderr over the
// engine's result event stream — cells done, rate, and ETA — while
// stdout stays reserved for the report:
//
//	faultsim -grid -tests "March C-,March U" -sizes 16,64 -progress
//
// With -pipeline the grid additionally runs the diagnosis-and-repair
// stage per fault: mismatch syndromes are diagnosed, suspect sites
// mapped onto spare rows/columns, and test escapes classified against
// a field-ECC model; the aggregate gains a yield section:
//
//	faultsim -grid -pipeline -spare-rows 1 -spare-cols 1 -ecc secded
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/march"
	"twmarch/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	testName := fs.String("test", "March C-", "catalog test name")
	width := fs.Int("width", 4, "word width (power of two)")
	words := fs.Int("words", 4, "memory words")
	classes := fs.String("classes", "SAF,TF,CFst,CFid,CFin", "fault classes to enumerate (also: AF, Linked)")
	scope := fs.String("scope", "all", "coupling pair scope: all, intra, inter")
	mode := fs.String("mode", "compare", "detection mode: compare or signature")
	seed := fs.Int64("seed", 1, "initial-contents seed")
	naive := fs.Bool("naive", false, "debugging escape hatch: use the naive per-fault simulation path instead of the bit-parallel lane path (identical results; zeroed in the canonical JSON aggregate)")
	baseline := fs.Bool("baseline", true, "also run the Scheme 1 baseline")
	characterize := fs.Bool("characterize", false, "print the catalog-wide coverage matrix and exit")
	grid := fs.Bool("grid", false, "run a campaign grid on the internal/campaign engine")
	tests := fs.String("tests", "", "with -grid: comma-separated catalog tests (default: -test)")
	widths := fs.String("widths", "", "with -grid: comma-separated word widths (default: -width)")
	sizes := fs.String("sizes", "", "with -grid: comma-separated memory sizes in words (default: -words)")
	workers := fs.Int("workers", 0, "with -grid: worker-pool size (0 = GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "with -grid: print the canonical JSON aggregate instead of tables")
	progress := fs.Bool("progress", false, "with -grid: report live completion, rate and ETA to stderr")
	pipeline := fs.Bool("pipeline", false, "with -grid: run the diagnosis-and-repair yield pipeline per fault")
	spareRows := fs.Int("spare-rows", 1, "with -pipeline: spare word lines per memory")
	spareCols := fs.Int("spare-cols", 1, "with -pipeline: spare bit lines per memory")
	eccModel := fs.String("ecc", "none", "with -pipeline: field ECC model for escapes: none, sec, secded")
	maxSyndrome := fs.Int("max-syndrome", 0, "with -pipeline: diagnostic mismatch-log cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *characterize {
		return characterizeCatalog(out, *words)
	}

	if *grid {
		var ps *campaign.PipelineSpec
		if *pipeline {
			ps = &campaign.PipelineSpec{
				Enabled:     true,
				SpareRows:   *spareRows,
				SpareCols:   *spareCols,
				ECC:         *eccModel,
				MaxSyndrome: *maxSyndrome,
			}
		}
		return runGrid(out, errOut, gridFlags{
			tests: orDefault(*tests, *testName), widths: orDefault(*widths, strconv.Itoa(*width)),
			sizes: orDefault(*sizes, strconv.Itoa(*words)), classes: *classes, scope: *scope,
			mode: *mode, seed: *seed, baseline: *baseline, workers: *workers, asJSON: *asJSON,
			naive: *naive, pipeline: ps, progress: *progress,
		})
	}

	bm, err := march.Lookup(*testName)
	if err != nil {
		return err
	}
	list, err := buildList(*classes, *scope, *words, *width)
	if err != nil {
		return err
	}
	dm := faultsim.DirectCompare
	if *mode == "signature" {
		dm = faultsim.Signature
	} else if *mode != "compare" {
		return fmt.Errorf("unknown mode %q", *mode)
	}

	res, err := core.TWMTA(bm, *width)
	if err != nil {
		return err
	}
	tb := &report.Table{
		Title: fmt.Sprintf("fault coverage: %d faults on %dx%d memory, mode %s, seed %d",
			len(list), *words, *width, dm, *seed),
		Header: []string{"test", "class", "detected", "total", "coverage"},
	}
	if err := coverageRows(tb, "TWMarch", res.TWMarch, dm, *words, *width, *seed, *naive, list); err != nil {
		return err
	}
	if *baseline {
		s1, err := core.Scheme1(bm, *width)
		if err != nil {
			return err
		}
		if err := coverageRows(tb, "Scheme 1", s1.Test, dm, *words, *width, *seed, *naive, list); err != nil {
			return err
		}
	}
	_, err = io.WriteString(out, tb.Render())
	return err
}

// characterizeCatalog prints the coverage matrix of every catalog test
// against every fault class — the library's reproduction of the
// classical march-test comparison tables.
func characterizeCatalog(out io.Writer, words int) error {
	var names []string
	for _, e := range march.Catalog() {
		names = append(names, e.Name)
	}
	ch, err := faultsim.Characterize(names, words)
	if err != nil {
		return err
	}
	tb := &report.Table{
		Title:  fmt.Sprintf("march test characterization on a %d-cell bit-oriented memory (coverage %%)", words),
		Header: append([]string{"test"}, ch.Classes...),
	}
	for i, name := range ch.Tests {
		row := []string{name}
		for j := range ch.Classes {
			row = append(row, fmt.Sprintf("%.0f", 100*ch.Coverage[i][j]))
		}
		tb.AddRow(row...)
	}
	_, err = io.WriteString(out, tb.Render())
	return err
}

func coverageRows(tb *report.Table, label string, t *march.Test, mode faultsim.DetectMode, words, width int, seed int64, naive bool, list []faults.Fault) error {
	c := faultsim.Campaign{Test: t, Words: words, Width: width, Mode: mode, Seed: seed, Naive: naive}
	rep, err := faultsim.Run(c, list)
	if err != nil {
		return err
	}
	for _, cls := range rep.Classes() {
		s := rep.ByClass[cls]
		tb.AddRow(label, cls, fmt.Sprintf("%d", s.Detected), fmt.Sprintf("%d", s.Total),
			fmt.Sprintf("%.2f%%", 100*s.Coverage()))
	}
	tb.AddRow(label, "TOTAL", fmt.Sprintf("%d", rep.Detected), fmt.Sprintf("%d", rep.Total),
		fmt.Sprintf("%.2f%%", 100*rep.Coverage()))
	return nil
}

// buildList delegates fault enumeration to the campaign package so the
// single-run and grid paths agree on class names and scopes.
func buildList(classes, scope string, words, width int) ([]faults.Fault, error) {
	ps, err := campaign.PairScope(scope)
	if err != nil {
		return nil, err
	}
	return campaign.FaultList(splitList(classes), ps, words, width)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func orDefault(v, def string) string {
	if strings.TrimSpace(v) == "" {
		return def
	}
	return v
}

// gridFlags carries the parsed -grid flag set to runGrid.
type gridFlags struct {
	tests, widths, sizes string
	classes, scope, mode string
	seed                 int64
	baseline             bool
	workers              int
	asJSON               bool
	naive                bool
	pipeline             *campaign.PipelineSpec
	progress             bool
}

// runGrid expands the comma lists into a campaign.Spec and hands it to
// the shared worker-pool engine.
func runGrid(out, errOut io.Writer, f gridFlags) error {
	widths, err := intList(f.widths)
	if err != nil {
		return fmt.Errorf("-widths: %v", err)
	}
	sizes, err := intList(f.sizes)
	if err != nil {
		return fmt.Errorf("-sizes: %v", err)
	}
	classes := splitList(f.classes)
	if len(classes) == 0 {
		return fmt.Errorf("empty fault class list")
	}
	schemes := []string{campaign.SchemeTWM}
	if f.baseline {
		schemes = append(schemes, campaign.SchemeOne)
	}
	// Mode names match the campaign package's ("compare", "signature");
	// Spec.Validate rejects anything else.
	spec := campaign.Spec{
		Name:     "faultsim grid",
		Tests:    splitList(f.tests),
		Widths:   widths,
		Words:    sizes,
		Schemes:  schemes,
		Modes:    []string{f.mode},
		Classes:  classes,
		Scope:    f.scope,
		Seed:     f.seed,
		Workers:  f.workers,
		Naive:    f.naive,
		Pipeline: f.pipeline,
	}
	prog := &campaign.Progress{}
	var sinks []campaign.Sink
	if f.progress {
		sinks = append(sinks, newProgressPrinter(prog, errOut))
	}
	agg, err := campaign.Engine{}.Stream(context.Background(), spec, prog, nil, sinks...)
	if err != nil {
		return err
	}
	return campaign.WriteAggregate(out, agg, f.asJSON)
}

// progressPrinter is the -progress sink: it rides the engine's result
// event stream and prints a throttled completion line per update —
// cells done, rate, ETA — plus an unconditional final line.
type progressPrinter struct {
	mu   sync.Mutex
	prog *campaign.Progress
	out  io.Writer
	last time.Time
}

func newProgressPrinter(prog *campaign.Progress, out io.Writer) *progressPrinter {
	return &progressPrinter{prog: prog, out: out}
}

// Emit implements campaign.Sink. The engine serializes calls; the
// mutex only guards against a final Emit racing a throttled one.
func (p *progressPrinter) Emit(campaign.CellResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	done, total := p.prog.Done(), p.prog.Total()
	if done < total && time.Since(p.last) < 500*time.Millisecond {
		return
	}
	p.last = time.Now()
	line := fmt.Sprintf("progress: %d/%d cells (%.1f%%), %.1f cells/s",
		done, total, 100*p.prog.Fraction(), p.prog.Rate())
	if eta := p.prog.ETA(); eta > 0 {
		line += fmt.Sprintf(", eta %s", eta.Round(100*time.Millisecond))
	}
	fmt.Fprintln(p.out, line)
}

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
