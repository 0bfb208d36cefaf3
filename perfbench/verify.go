package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"

	"twmarch/internal/campaign"
	"twmarch/internal/complexity"
	"twmarch/internal/march"
	"twmarch/internal/warehouse"
)

// verifySettled checks every settled campaign after the window:
//   - the served aggregate decodes, covers every cell without errors,
//     and streamed one event per cell;
//   - every cell's closed-form and measured test lengths hold
//     (checkLengths);
//   - the cells read back through /campaigns/query equal the served ones;
//   - one campaign in w.verifyEvery (all on the small workloads) is
//     re-simulated in-process and its canonical aggregate compared
//     byte for byte with the served one.
func verifySettled(ctx context.Context, w *workload, list []campaign.Spec, done []*settled, ops *tally) {
	eng := campaign.Engine{Workers: nproc}
	for i, s := range done {
		if s == nil {
			continue // the failed step was tallied
		}
		var agg campaign.Aggregate
		if err := json.Unmarshal(s.served, &agg); err != nil {
			ops.fail(fmt.Sprintf("campaign %d: decode results: %v", i, err))
			continue
		}
		ops.check(len(agg.Cells) == s.cells && s.events == s.cells && agg.Errors == 0,
			fmt.Sprintf("campaign %d: %d cells, %d events, %d errors, want %d cells", i, len(agg.Cells), s.events, agg.Errors, s.cells))
		for _, c := range agg.Cells {
			if err := checkLengths(c); err != nil {
				ops.fail(fmt.Sprintf("campaign %d cell %d: %v", i, c.Index, err))
			} else {
				ops.ok()
			}
		}
		ops.check(ownMatches(s.own, agg.Cells), fmt.Sprintf("campaign %d: indexed cells differ from the served results", i))
		if i%w.verifyEvery != 0 {
			continue
		}
		ref, err := eng.Run(ctx, list[i])
		if err != nil {
			ops.fail(fmt.Sprintf("campaign %d: in-process run: %v", i, err))
			continue
		}
		b, err := ref.Canonical()
		if err != nil {
			ops.fail(fmt.Sprintf("campaign %d: canonical: %v", i, err))
			continue
		}
		ops.check(bytes.Equal(b, s.served), fmt.Sprintf("campaign %d: served aggregate differs from the in-process run", i))
	}
}

// checkLengths checks a cell's test lengths against the paper: the
// closed forms it reports must be Table 2's formulas for the catalog
// test's M operations and Q reads — (M + 5 log2 W, Q + 2 log2 W) for
// TWM_TA, (M(log2 W + 1), Q(log2 W + 1)) for Scheme 1 — and the measured
// TCM/TCP must be the constructive lengths of the generated test.
// (Measured and closed form differ by design; Table 3 prints both.)
func checkLengths(c campaign.CellResult) error {
	bm, err := march.Lookup(c.Test)
	if err != nil {
		return err
	}
	lg := bits.Len(uint(c.Width)) - 1
	m, q := bm.Ops(), bm.Reads()
	want := complexity.Cost{TCM: m + 5*lg, TCP: q + 2*lg}
	sch := complexity.Proposed
	if c.Scheme == campaign.SchemeOne {
		want, sch = complexity.Cost{TCM: m * (lg + 1), TCP: q * (lg + 1)}, complexity.Scheme1
	}
	if c.ClosedTCM != want.TCM || c.ClosedTCP != want.TCP {
		return fmt.Errorf("closed form %d/%d, Table 2 gives %d/%d", c.ClosedTCM, c.ClosedTCP, want.TCM, want.TCP)
	}
	got, err := complexity.Constructive(sch, bm, c.Width)
	if err != nil {
		return err
	}
	if c.TCM != got.TCM || c.TCP != got.TCP {
		return fmt.Errorf("TCM/TCP %d/%d, generated test has %d/%d", c.TCM, c.TCP, got.TCM, got.TCP)
	}
	return nil
}

// ownMatches reports whether the query read-back holds exactly the
// campaign's cells with their served counts.
func ownMatches(own []queryRecord, cells []campaign.CellResult) bool {
	if len(own) != len(cells) {
		return false
	}
	for _, q := range own {
		if q.Cell < 0 || q.Cell >= len(cells) {
			return false
		}
		c := cells[q.Cell]
		if _, ok := warehouse.JobSeq(q.ID); !ok || q.Test != c.Test || q.Width != c.Width || q.Words != c.Words ||
			q.Scheme != c.Scheme || q.Mode != c.Mode || q.Faults != c.Faults || q.Detected != c.Detected ||
			q.TCM != c.TCM || q.TCP != c.TCP {
			return false
		}
	}
	return true
}

// headline prints the paper's anchor — March C- at W=32, the proposed
// scheme's total cost relative to Schemes 1 and 2 (about 56% and 19%)
// — and checks it.
func headline(ops *tally) {
	bm, err := march.Lookup("March C-")
	if err != nil {
		ops.fail(err.Error())
		return
	}
	h, err := complexity.Headline(bm, 32)
	if err != nil {
		ops.fail(err.Error())
		return
	}
	fmt.Printf("paper anchor: March C- at W=32 costs %.1f%% of Scheme 1 and %.1f%% of Scheme 2 (paper: ~56%%, ~19%%)\n",
		100*h.VsScheme1, 100*h.VsScheme2)
	ops.check(h.VsScheme1 > 0.54 && h.VsScheme1 < 0.58 && h.VsScheme2 > 0.17 && h.VsScheme2 < 0.21,
		fmt.Sprintf("headline ratios %.3f/%.3f outside the paper's ~0.56/~0.19", h.VsScheme1, h.VsScheme2))
}
