package campaign

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"twmarch/internal/ecc"
	"twmarch/internal/faults"
)

// pipelineSpec is a small single-test grid with the pipeline enabled;
// MATS at width 4 is deliberately weak (its TWM transform misses some
// transition faults), so the grid has both detections and escapes.
func pipelineSpec(rows, cols int, eccModel string) Spec {
	return Spec{
		Name:    "yield",
		Tests:   []string{"MATS"},
		Widths:  []int{4},
		Words:   []int{4},
		Schemes: []string{SchemeTWM},
		Classes: []string{"SAF", "TF"},
		Seed:    1,
		Pipeline: &PipelineSpec{
			Enabled:   true,
			SpareRows: rows,
			SpareCols: cols,
			ECC:       eccModel,
		},
	}
}

func runPipelineCell(t *testing.T, spec Spec) *YieldStats {
	t.Helper()
	agg, err := Engine{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 {
		t.Fatalf("cells errored: %+v", agg.Cells)
	}
	if agg.YieldTotal == nil {
		t.Fatal("pipeline enabled but aggregate has no yield section")
	}
	return agg.YieldTotal
}

func TestPipelineSpecValidate(t *testing.T) {
	bad := []*PipelineSpec{
		{Enabled: true, SpareRows: -1},
		{Enabled: true, SpareCols: -1},
		{Enabled: true, SpareRows: MaxSpares + 1},
		{Enabled: true, SpareCols: MaxSpares + 1},
		{Enabled: true, ECC: "bogus"},
		{Enabled: true, MaxSyndrome: -1},
		{Enabled: true, MaxSyndrome: MaxSyndromeCap + 1},
	}
	for i, p := range bad {
		s := pipelineSpec(1, 1, "")
		s.Pipeline = p
		if err := s.Validate(); err == nil {
			t.Errorf("bad pipeline block %d accepted: %+v", i, p)
		}
	}
	// A disabled block is ignored even when out of range.
	s := pipelineSpec(1, 1, "")
	s.Pipeline = &PipelineSpec{Enabled: false, SpareRows: -5}
	if err := s.Validate(); err != nil {
		t.Errorf("disabled pipeline block rejected: %v", err)
	}
	// SEC-DED at width 128 needs a 137-bit codeword, beyond word.MaxWidth.
	s = pipelineSpec(1, 1, ECCSECDED)
	s.Widths = []int{128}
	s.Classes = []string{"SAF"}
	if err := s.Validate(); err == nil {
		t.Error("128-bit SEC-DED codeword accepted")
	}
	if err := pipelineSpec(1, 1, ECCSECDED).Validate(); err != nil {
		t.Errorf("valid pipeline spec rejected: %v", err)
	}
}

// TestPipelineUnrepairable exhausts the spare budget: with zero spare
// rows and columns, every diagnosed fault must land in Unrepairable
// and no spares may be spent.
func TestPipelineUnrepairable(t *testing.T) {
	y := runPipelineCell(t, pipelineSpec(0, 0, ""))
	if y.Detected == 0 {
		t.Fatal("weak-test cell detected nothing; fixture broken")
	}
	if y.Repairable != 0 {
		t.Errorf("%d faults repairable with zero spares", y.Repairable)
	}
	if y.Unrepairable != y.Detected-y.NoSyndrome {
		t.Errorf("unrepairable %d != detected %d - no-syndrome %d",
			y.Unrepairable, y.Detected, y.NoSyndrome)
	}
	if y.SpareRowsUsed != 0 || y.SpareColsUsed != 0 {
		t.Errorf("spares spent from an empty budget: %d rows, %d cols",
			y.SpareRowsUsed, y.SpareColsUsed)
	}
	if r := y.RepairabilityRate(); r != 0 {
		t.Errorf("repairability rate %v, want 0", r)
	}
	if u := y.SpareUtilization(0, 0); u != 0 {
		t.Errorf("spare utilization %v with no budget", u)
	}
}

// TestPipelineECCCorrectedEscapes: the MATS cell lets some single-bit
// transition faults escape; with a SEC code modeled, every one of them
// is corrected in the field, so the post-ECC escape rate drops to 0
// while the raw escape rate stays positive.
func TestPipelineECCCorrectedEscapes(t *testing.T) {
	y := runPipelineCell(t, pipelineSpec(1, 1, ECCSEC))
	if y.Escapes == 0 {
		t.Fatal("weak-test cell had no escapes; fixture broken")
	}
	if y.ECCCorrected != y.Escapes {
		t.Errorf("%d of %d single-bit escapes ECC-corrected", y.ECCCorrected, y.Escapes)
	}
	if r := y.EscapeRate(); r <= 0 {
		t.Errorf("escape rate %v, want > 0", r)
	}
	if r := y.PostECCEscapeRate(); r != 0 {
		t.Errorf("post-ECC escape rate %v, want 0: every escape is single-bit", r)
	}
	// Without ECC modeling nothing is corrected and the rates agree.
	y = runPipelineCell(t, pipelineSpec(1, 1, ""))
	if y.ECCCorrected != 0 {
		t.Errorf("ECC corrections counted with ECC off: %d", y.ECCCorrected)
	}
	if y.EscapeRate() != y.PostECCEscapeRate() {
		t.Errorf("rates diverge with ECC off: %v vs %v", y.EscapeRate(), y.PostECCEscapeRate())
	}
}

// TestPipelineEscapesSkipDiagnosis: an escaped fault leaves no
// mismatch log, so diagnosis and repair are short-circuited for it —
// the diagnosed-class histogram and the allocation tallies must be
// fed exclusively by detected faults.
func TestPipelineEscapesSkipDiagnosis(t *testing.T) {
	y := runPipelineCell(t, pipelineSpec(1, 1, ""))
	if y.Escapes == 0 {
		t.Fatal("fixture has no escapes")
	}
	hist := 0
	for _, n := range y.ByDiagClass {
		hist += n
	}
	if hist+y.NoSyndrome != y.Detected {
		t.Errorf("diagnosed classes (%d) + no-syndrome (%d) != detected (%d): escapes leaked into diagnosis",
			hist, y.NoSyndrome, y.Detected)
	}
	if got := y.Repairable + y.Unrepairable + y.NoSyndrome; got != y.Detected {
		t.Errorf("allocation attempts %d != detected %d", got, y.Detected)
	}
	if y.Detected+y.Escapes != y.Analyzed {
		t.Errorf("detected %d + escapes %d != analyzed %d", y.Detected, y.Escapes, y.Analyzed)
	}
}

// TestPipelineParallelMatchesSerial extends the engine's core
// byte-identical guarantee to pipeline-enabled campaigns: diagnosis,
// spare allocation and ECC classification must all be pure functions
// of (spec, cell), never of scheduling.
func TestPipelineParallelMatchesSerial(t *testing.T) {
	spec := gridSpec()
	// Tight spare budget so the allocator's tie-breaking is exercised,
	// SEC-DED so the ECC stage runs at both grid widths.
	spec.Pipeline = &PipelineSpec{Enabled: true, SpareRows: 1, SpareCols: 1, ECC: ECCSECDED}
	ctx := context.Background()

	serial := spec
	serial.Workers = 1
	aggSerial, err := Engine{}.Run(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := spec
	parallel.Workers = runtime.GOMAXPROCS(0)
	aggParallel, err := Engine{}.Run(ctx, parallel)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := aggSerial.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := aggParallel.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs, cp) {
		t.Fatalf("pipeline aggregate diverges between serial and parallel:\nserial:\n%s\nparallel:\n%s", cs, cp)
	}
	if aggSerial.YieldTotal == nil || aggSerial.YieldTotal.Analyzed == 0 {
		t.Fatal("pipeline ran nothing")
	}
	if !bytes.Contains(cs, []byte(`"yield"`)) || !bytes.Contains(cs, []byte(`"repairability_rate"`)) {
		t.Errorf("canonical aggregate missing yield section:\n%s", cs[:min(len(cs), 2000)])
	}
}

// TestPipelineOffLeavesResultsUnchanged: a disabled pipeline block
// must not perturb detection results relative to the batched path.
func TestPipelineOffLeavesResultsUnchanged(t *testing.T) {
	base := pipelineSpec(1, 1, "")
	base.Pipeline = nil
	aggOff, err := Engine{}.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	on := pipelineSpec(1, 1, "")
	aggOn, err := Engine{}.Run(context.Background(), on)
	if err != nil {
		t.Fatal(err)
	}
	if aggOff.Faults != aggOn.Faults || aggOff.Detected != aggOn.Detected {
		t.Errorf("pipeline changed detection: %d/%d vs %d/%d",
			aggOn.Detected, aggOn.Faults, aggOff.Detected, aggOff.Faults)
	}
	for scheme, classes := range aggOff.Coverage {
		for cls, c := range classes {
			if got := aggOn.Coverage[scheme][cls]; got != c {
				t.Errorf("coverage %s/%s diverges: %+v vs %+v", scheme, cls, got, c)
			}
		}
	}
	if aggOff.YieldTotal != nil {
		t.Error("yield section present with pipeline disabled")
	}
}

// TestPipelineSignatureMode runs the pipeline behind signature-based
// detection: the diagnostic re-run happens only for flagged faults.
func TestPipelineSignatureMode(t *testing.T) {
	spec := pipelineSpec(1, 1, ECCSEC)
	spec.Modes = []string{ModeSignature}
	y := runPipelineCell(t, spec)
	if y.Analyzed == 0 || y.Detected == 0 {
		t.Fatalf("signature pipeline cell empty: %+v", y)
	}
	if y.Detected+y.Escapes != y.Analyzed {
		t.Errorf("tallies inconsistent: %+v", y)
	}
}

// The pipeline's signature-mode detection goes through the cell's
// shared reference, one lane replay per 64 faults; forcing the naive
// path must not change the canonical aggregate (yield section
// included). The sizes give signature cells of exactly one chunk (4
// words: 64 faults), one chunk plus a partial tail (5 words: 80) and
// two plus a tail (9 words: 144).
func TestPipelineNaiveMatchesFast(t *testing.T) {
	spec := pipelineSpec(1, 1, ECCSECDED)
	spec.Modes = []string{ModeCompare, ModeSignature}
	spec.Words = []int{4, 5, 9}
	ctx := context.Background()
	fast, err := Engine{}.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	naiveSpec := spec
	naiveSpec.Naive = true
	naive, err := Engine{}.Run(ctx, naiveSpec)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := fast.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cn, err := naive.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cf, cn) {
		t.Fatalf("pipeline naive aggregate diverges from fast:\nfast:\n%s\nnaive:\n%s", cf, cn)
	}
	if fast.Errors != 0 {
		t.Fatalf("%d cells errored", fast.Errors)
	}
	for _, c := range fast.Cells {
		if want := 16 * c.Words; c.Faults != want {
			t.Errorf("%s cell at %d words holds %d faults, want %d", c.Mode, c.Words, c.Faults, want)
		}
	}
}

func TestECCOutcome(t *testing.T) {
	sec := ecc.MustNewHamming(4, false)
	secded := ecc.MustNewHamming(4, true)
	single := faults.StuckAt{Cell: faults.Site{Addr: 1, Bit: 2}, Value: 1}
	if got := eccOutcome(sec, single); got != ecc.Corrected {
		t.Errorf("single-bit fault under SEC: %v, want corrected", got)
	}
	victim := faults.Site{Addr: 0, Bit: 0}
	coupled := faults.Coupling{Model: faults.CFid, Aggressor: faults.Site{Addr: 1, Bit: 1}, Victim: victim, AggrTrigger: 1}
	if got := eccOutcome(secded, coupled); got != ecc.Corrected {
		t.Errorf("single-victim coupling under SEC-DED: %v, want corrected", got)
	}
	// Address decoder faults return valid codewords from wrong
	// addresses: invisible to any per-word code.
	if got := eccOutcome(secded, faults.AddrAlias{From: 0, To: 1}); got != ecc.Uncorrectable {
		t.Errorf("decoder fault: %v, want uncorrectable", got)
	}
}
