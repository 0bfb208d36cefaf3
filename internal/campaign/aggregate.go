package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"twmarch/internal/report"
)

// OpStats accumulates op-count accounting (in operations per address)
// across the cells of one scheme.
type OpStats struct {
	// Cells counts the grid cells folded in.
	Cells int `json:"cells"`
	// MinTotal and MaxTotal bound TCM+TCP over the cells.
	MinTotal int `json:"min_total"`
	MaxTotal int `json:"max_total"`
	// SumTCM and SumTCP total the measured lengths, for mean
	// computation without float drift.
	SumTCM int `json:"sum_tcm"`
	SumTCP int `json:"sum_tcp"`
}

func (o *OpStats) add(r CellResult) {
	total := r.TCM + r.TCP
	if o.Cells == 0 || total < o.MinTotal {
		o.MinTotal = total
	}
	if total > o.MaxTotal {
		o.MaxTotal = total
	}
	o.Cells++
	o.SumTCM += r.TCM
	o.SumTCP += r.TCP
}

// MeanTotal returns the mean TCM+TCP per cell.
func (o OpStats) MeanTotal() float64 {
	if o.Cells == 0 {
		return 0
	}
	return float64(o.SumTCM+o.SumTCP) / float64(o.Cells)
}

// Aggregate is the folded outcome of a campaign: every cell result in
// grid order plus coverage matrices and op-count stats per scheme.
// Everything except the wall-clock fields is a pure function of the
// spec, so Canonical gives a byte-stable fingerprint.
type Aggregate struct {
	// Spec is the normalized spec the campaign ran.
	Spec Spec `json:"spec"`
	// Cells holds one result per grid cell, in grid order.
	Cells []CellResult `json:"cells"`
	// Coverage maps scheme → fault class → detection tally, folded
	// over every cell of that scheme.
	Coverage map[string]map[string]ClassCount `json:"coverage"`
	// Ops maps scheme → op-count stats.
	Ops map[string]OpStats `json:"ops"`
	// Yield maps scheme → folded diagnosis-and-repair pipeline stats;
	// nil when the spec's pipeline stage is disabled.
	Yield map[string]*YieldStats `json:"yield,omitempty"`
	// YieldTotal folds the pipeline stats across the whole grid.
	YieldTotal *YieldStats `json:"yield_total,omitempty"`
	// Faults and Detected total the fault population and detections
	// across the whole grid.
	Faults   int `json:"faults"`
	Detected int `json:"detected"`
	// Errors counts cells that failed (CellResult.Err non-empty).
	Errors int `json:"errors"`
	// WallClockNS is total campaign wall-clock time; excluded from
	// Canonical.
	WallClockNS int64 `json:"wall_clock_ns,omitempty"`
}

// NewAggregate folds cell results (in grid order) into an Aggregate.
// It is the batch form of the incremental Aggregator: results are
// folded one at a time at their slice position, so the output is
// byte-identical (in canonical form) to an Aggregator fed the same
// results in any completion order.
func NewAggregate(spec Spec, cells []CellResult) *Aggregate {
	g := NewAggregator(spec)
	g.mu.Lock()
	for i, r := range cells {
		g.addAt(i, r)
	}
	g.mu.Unlock()
	return g.Snapshot()
}

// CoverageFraction returns the grid-wide detected fraction (1 for an
// empty grid).
func (a *Aggregate) CoverageFraction() float64 {
	if a.Faults == 0 {
		return 1
	}
	return float64(a.Detected) / float64(a.Faults)
}

// Canonical returns the deterministic JSON encoding of the aggregate:
// indented, with wall-clock and scheduling fields zeroed. Two campaigns
// over the same grid produce byte-identical Canonical output regardless
// of worker count, batch size, scheduling, host speed, or simulation
// path (the Naive escape hatch changes only how verdicts are computed,
// never what they are, so it is zeroed alongside the other knobs).
func (a *Aggregate) Canonical() ([]byte, error) {
	c := *a
	c.WallClockNS = 0
	c.Spec.Workers = 0
	c.Spec.Batch = 0
	c.Spec.Naive = false
	c.Cells = make([]CellResult, len(a.Cells))
	copy(c.Cells, a.Cells)
	for i := range c.Cells {
		c.Cells[i].DurationNS = 0
	}
	return json.MarshalIndent(&c, "", "  ")
}

// WriteAggregate writes the aggregate to w — canonical JSON or the
// text report — and returns an error when every cell failed, so
// scripted callers (twmd -once, faultsim -grid) exit nonzero when
// nothing simulated.
func WriteAggregate(w io.Writer, a *Aggregate, asJSON bool) error {
	if asJSON {
		b, err := a.Canonical()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	} else if _, err := io.WriteString(w, a.Render()); err != nil {
		return err
	}
	if a.Errors == len(a.Cells) && len(a.Cells) > 0 {
		return fmt.Errorf("campaign: all %d cells failed (first: %s)", a.Errors, a.firstErr())
	}
	return nil
}

func (a *Aggregate) firstErr() string {
	for _, c := range a.Cells {
		if c.Err != "" {
			return c.Err
		}
	}
	return ""
}

// Schemes returns the scheme labels present in the aggregate, sorted.
func (a *Aggregate) Schemes() []string {
	out := make([]string, 0, len(a.Coverage))
	for s := range a.Coverage {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Render formats the per-scheme coverage matrix and op-count stats as
// a text table.
func (a *Aggregate) Render() string {
	tb := &report.Table{
		Title: fmt.Sprintf("campaign %q: %d cells, %d faults, %.2f%% detected, %d errors",
			a.Spec.Name, len(a.Cells), a.Faults, 100*a.CoverageFraction(), a.Errors),
		Header: []string{"scheme", "class", "detected", "total", "coverage"},
	}
	for _, scheme := range a.Schemes() {
		m := a.Coverage[scheme]
		classes := make([]string, 0, len(m))
		for cls := range m {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		var tot ClassCount
		for _, cls := range classes {
			c := m[cls]
			tot.Total += c.Total
			tot.Detected += c.Detected
			tb.AddRow(scheme, cls, fmt.Sprintf("%d", c.Detected), fmt.Sprintf("%d", c.Total),
				fmt.Sprintf("%.2f%%", 100*c.Coverage()))
		}
		tb.AddRow(scheme, "TOTAL", fmt.Sprintf("%d", tot.Detected), fmt.Sprintf("%d", tot.Total),
			fmt.Sprintf("%.2f%%", 100*tot.Coverage()))
	}
	out := tb.Render()
	ops := &report.Table{
		Title:  "op counts (per address, measured TCM+TCP)",
		Header: []string{"scheme", "cells", "min", "mean", "max"},
	}
	for _, scheme := range a.Schemes() {
		o := a.Ops[scheme]
		ops.AddRow(scheme, fmt.Sprintf("%d", o.Cells), fmt.Sprintf("%dN", o.MinTotal),
			fmt.Sprintf("%.1fN", o.MeanTotal()), fmt.Sprintf("%dN", o.MaxTotal))
	}
	out += "\n" + ops.Render()
	if a.Yield != nil {
		out += "\n" + a.renderYield()
	}
	return out
}

// renderYield formats the pipeline's per-scheme yield summary and the
// diagnosed-class histogram.
func (a *Aggregate) renderYield() string {
	var rows, cols int
	if p := a.Spec.Pipeline; p != nil {
		rows, cols = p.SpareRows, p.SpareCols
	}
	yt := &report.Table{
		Title: fmt.Sprintf("yield pipeline (spares %dr+%dc, ecc %s): %.2f%% repairable, %.2f%% post-ECC escapes",
			rows, cols, a.eccName(), 100*a.YieldTotal.RepairabilityRate(), 100*a.YieldTotal.PostECCEscapeRate()),
		Header: []string{"scheme", "analyzed", "detected", "repairable", "unrepairable", "escapes", "ecc-corrected", "spare-util"},
	}
	schemes := make([]string, 0, len(a.Yield))
	for s := range a.Yield {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, scheme := range schemes {
		y := a.Yield[scheme]
		yt.AddRow(scheme, fmt.Sprintf("%d", y.Analyzed), fmt.Sprintf("%d", y.Detected),
			fmt.Sprintf("%d (%.2f%%)", y.Repairable, 100*y.RepairabilityRate()),
			fmt.Sprintf("%d", y.Unrepairable), fmt.Sprintf("%d", y.Escapes),
			fmt.Sprintf("%d", y.ECCCorrected),
			fmt.Sprintf("%.2f%%", 100*y.SpareUtilization(rows, cols)))
	}
	out := yt.Render()
	hist := &report.Table{
		Title:  "diagnosed fault classes (detected faults)",
		Header: []string{"scheme", "diagnosis", "count"},
	}
	for _, scheme := range schemes {
		y := a.Yield[scheme]
		classes := make([]string, 0, len(y.ByDiagClass))
		for cls := range y.ByDiagClass {
			classes = append(classes, cls)
		}
		sort.Strings(classes)
		for _, cls := range classes {
			hist.AddRow(scheme, cls, fmt.Sprintf("%d", y.ByDiagClass[cls]))
		}
		if y.NoSyndrome > 0 {
			hist.AddRow(scheme, "(no syndrome)", fmt.Sprintf("%d", y.NoSyndrome))
		}
	}
	return out + "\n" + hist.Render()
}

// eccName returns the spec's effective ECC model label.
func (a *Aggregate) eccName() string {
	if p := a.Spec.Pipeline; p != nil && p.ECC != "" {
		return p.ECC
	}
	return ECCNone
}
