package campaign

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"twmarch/internal/word"
)

// gridSpec is a ≥100-cell grid small enough to simulate quickly:
// 7 tests × 2 widths × 2 sizes × 2 schemes × 2 modes = 112 cells.
func gridSpec() Spec {
	return Spec{
		Name:    "grid",
		Tests:   []string{"MATS", "MATS+", "MATS++", "March X", "March Y", "March C-", "March U"},
		Widths:  []int{2, 4},
		Words:   []int{2, 3},
		Modes:   []string{ModeCompare, ModeSignature},
		Classes: []string{"SAF", "TF"},
		Seed:    42,
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Tests: []string{"March C-"}},
		{Tests: []string{"March C-"}, Widths: []int{4}},
		{Tests: []string{"no such test"}, Widths: []int{4}, Words: []int{4}},
		{Tests: []string{"March C-"}, Widths: []int{3}, Words: []int{4}},
		{Tests: []string{"MATS"}, Widths: []int{2 * word.MaxWidth}, Words: []int{2}, Classes: []string{"SAF"}, Schemes: []string{SchemeOne}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{1}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Schemes: []string{"bogus"}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Modes: []string{"bogus"}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Scope: "bogus"},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Classes: []string{"bogus"}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Workers: -1},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{4}, Workers: MaxWorkers + 1},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{MaxWords + 1}},
		{Tests: []string{"March C-"}, Widths: []int{4}, Words: bigWordList(MaxCells/2 + 1)},
		// Coupling classes are quadratic in the bit count; big geometries
		// must be rejected up front.
		{Tests: []string{"March C-"}, Widths: []int{64}, Words: []int{MaxWords}, Classes: []string{"CFid"}},
		// Width 1 has no intra-word pairs: the population would be empty
		// in every cell.
		{Tests: []string{"MATS"}, Widths: []int{1}, Words: []int{4}, Classes: []string{"CFin"}, Scope: "intra"},
		// Duplicate-padded lists whose cell product overflows int must
		// not wrap past the MaxCells check.
		{
			Tests:  dup("MATS", 5000),
			Widths: dupInt(2, 5000),
			Words:  dupInt(2, 5000),
			Modes:  dup(ModeCompare, 5000),
		},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := gridSpec().Validate(); err != nil {
		t.Fatalf("grid spec rejected: %v", err)
	}
}

// bigWordList builds n valid word counts, for grid-limit tests.
func bigWordList(n int) []int { return dupInt(2, n) }

func dup(v string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func dupInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestCellsOrderAndSeeds(t *testing.T) {
	spec := gridSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 112 {
		t.Fatalf("grid expanded to %d cells, want 112", len(cells))
	}
	if n := spec.CellCount(); n != len(cells) {
		t.Fatalf("CellCount %d != expanded %d", n, len(cells))
	}
	seeds := make(map[int64]int)
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		seeds[c.Seed]++
	}
	if len(seeds) != len(cells) {
		t.Errorf("derived seeds collide: %d distinct for %d cells", len(seeds), len(cells))
	}
	again, err := gridSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at cell %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
}

func TestShard(t *testing.T) {
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i].Index = i
	}
	shards := Shard(cells, 4)
	if len(shards) != 3 || len(shards[0]) != 4 || len(shards[2]) != 2 {
		t.Fatalf("bad shard shape: %v", shards)
	}
	n := 0
	for _, s := range shards {
		for _, c := range s {
			if c.Index != n {
				t.Fatalf("shard order broken at %d", n)
			}
			n++
		}
	}
}

// TestNaiveMatchesFast pins the engine-level equivalence of the two
// simulation paths: the same grid run with the reference-trace fast
// path and with the naive per-fault escape hatch must fold into
// byte-identical canonical aggregates (Canonical zeroes the Naive knob
// alongside the other scheduling fields). The grid spans both schemes
// and both detection modes.
func TestNaiveMatchesFast(t *testing.T) {
	spec := gridSpec()
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
		t.Fatalf("naive aggregate diverges from fast:\nfast:\n%s\nnaive:\n%s", cf, cn)
	}
	if fast.Errors != 0 {
		t.Fatalf("%d cells errored: %s", fast.Errors, cf)
	}
}

// TestParallelMatchesSerial is the subsystem's core guarantee: the
// same spec and seed produce byte-identical canonical aggregates with
// workers=1 and workers=GOMAXPROCS. Run under -race it also serves as
// the engine's data-race check.
func TestParallelMatchesSerial(t *testing.T) {
	spec := gridSpec()
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
		t.Fatalf("parallel aggregate diverges from serial:\nserial:\n%s\nparallel:\n%s", cs, cp)
	}
	if aggSerial.Errors != 0 {
		t.Fatalf("%d cells errored: %s", aggSerial.Errors, cs)
	}
	if len(aggSerial.Cells) != 112 {
		t.Fatalf("aggregate has %d cells, want 112", len(aggSerial.Cells))
	}
	if aggSerial.Faults == 0 || aggSerial.Detected == 0 {
		t.Fatalf("empty campaign: %d faults, %d detected", aggSerial.Faults, aggSerial.Detected)
	}
	// The transparent word test must preserve strong coverage on the
	// unlinked intra-word population it was built for.
	if cov := aggSerial.CoverageFraction(); cov < 0.9 {
		t.Errorf("grid coverage %.3f suspiciously low", cov)
	}
}

func TestSignatureMode(t *testing.T) {
	spec := Spec{
		Name:    "sig",
		Tests:   []string{"March C-"},
		Widths:  []int{4},
		Words:   []int{4},
		Schemes: []string{SchemeTWM},
		Modes:   []string{ModeCompare, ModeSignature},
		Classes: []string{"SAF"},
		Seed:    7,
	}
	agg, err := Engine{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 {
		t.Fatalf("signature cells errored: %+v", agg.Cells)
	}
	if len(agg.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(agg.Cells))
	}
	for _, c := range agg.Cells {
		if c.Detected == 0 {
			t.Errorf("mode %s detected nothing", c.Mode)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Run(ctx, gridSpec())
	if err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Cancel as the first cell is emitted: the collector runs the
		// sink before its final ctx check, so the cancel always lands
		// mid-run, however fast the rest of the grid simulates.
		_, err := Engine{}.Stream(ctx, gridSpec(), &Progress{}, nil, SinkFunc(func(CellResult) { cancel() }))
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not stop after cancel")
	}
}

func TestCellErrorDoesNotAbort(t *testing.T) {
	// Hand-build cells with one poisoned entry; the aggregate must
	// carry the error and keep the good cells.
	spec := Spec{Tests: []string{"MATS"}, Widths: []int{2}, Words: []int{2}, Classes: []string{"SAF"}}.Normalized()
	good := RunCell(spec, Cell{Index: 0, Test: "MATS", Width: 2, Words: 2, Scheme: SchemeTWM, Mode: ModeCompare, Seed: 1})
	bad := RunCell(spec, Cell{Index: 1, Test: "no such test", Width: 2, Words: 2, Scheme: SchemeTWM, Mode: ModeCompare, Seed: 2})
	if good.Err != "" {
		t.Fatalf("good cell errored: %s", good.Err)
	}
	if bad.Err == "" {
		t.Fatal("poisoned cell did not record an error")
	}
	agg := NewAggregate(spec, []CellResult{good, bad})
	if agg.Errors != 1 {
		t.Fatalf("aggregate counts %d errors, want 1", agg.Errors)
	}
	if agg.Faults != good.Faults {
		t.Fatalf("aggregate faults %d, want %d", agg.Faults, good.Faults)
	}
}

func TestRenderAndProgress(t *testing.T) {
	spec := Spec{
		Tests:   []string{"MATS++"},
		Widths:  []int{4},
		Words:   []int{3},
		Classes: []string{"SAF", "TF"},
	}
	prog := &Progress{}
	agg, err := Engine{}.RunProgress(context.Background(), spec, prog)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Done() != prog.Total() || prog.Fraction() != 1 {
		t.Fatalf("progress not complete: %d/%d", prog.Done(), prog.Total())
	}
	out := agg.Render()
	for _, want := range []string{"campaign", "TOTAL", "op counts", SchemeTWM, SchemeOne} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
