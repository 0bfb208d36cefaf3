package campaign

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faultsim"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// clearPrograms empties the process-wide program table, so the next
// cell of every key compiles cold. Tests in this package run
// sequentially; counters are still read as deltas because the table
// and the metrics are shared by the whole package.
func clearPrograms() {
	programs.mu.Lock()
	programs.m = nil
	programs.mu.Unlock()
}

func canonicalBytes(t *testing.T, a *Aggregate) []byte {
	t.Helper()
	c, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// One spec run from 8 goroutines on a cold table — through
// Engine.Stream and through a shared Simulator — must fold into the
// canonical aggregate the naive path produces, byte for byte. Run
// under -race -count=10 in CI: the goroutines race to fill and read
// the same table entries.
func TestProgramTableColdConcurrent(t *testing.T) {
	spec := gridSpec()
	ctx := context.Background()
	naiveSpec := spec
	naiveSpec.Naive = true
	naive, err := Engine{}.Run(ctx, naiveSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, naive)
	if naive.Errors != 0 {
		t.Fatalf("%d cells errored: %s", naive.Errors, want)
	}
	const goroutines = 8

	clearPrograms()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := Engine{Workers: 2}.Stream(ctx, spec, &Progress{}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if got, err := a.Canonical(); err != nil || !bytes.Equal(got, want) {
				t.Errorf("Stream on a cold table diverges from naive (%v):\n%s", err, got)
			}
		}()
	}
	wg.Wait()

	clearPrograms()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator()
	results := make([]CellResult, len(cells))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cells); i += goroutines {
				results[i] = sim.RunCell(ctx, spec, cells[i])
			}
		}(g)
	}
	wg.Wait()
	if got := canonicalBytes(t, NewAggregate(spec.Normalized(), results)); !bytes.Equal(got, want) {
		t.Errorf("RunCell on a cold table diverges from naive:\n%s", got)
	}
}

// A second identical campaign in the same process compiles nothing:
// every cell is a table hit.
func TestProgramTableSecondCampaignHits(t *testing.T) {
	spec := gridSpec()
	ctx := context.Background()
	if _, err := (Engine{}).Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	hits, misses := metProgramHits.Value(), metProgramMisses.Value()
	spec.Seed++
	if _, err := (Engine{}).Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if d := metProgramMisses.Value() - misses; d != 0 {
		t.Errorf("second campaign added %v program misses, want 0", d)
	}
	if d, n := metProgramHits.Value()-hits, spec.CellCount(); d != float64(n) {
		t.Errorf("second campaign added %v program hits, want %d", d, n)
	}
}

// Every accepted spelling of a test name shares the catalog name's
// entry, and the cell's result does not depend on which spelling
// filled it.
func TestProgramTableKeyedByCatalogName(t *testing.T) {
	clearPrograms()
	spec := Spec{Tests: []string{"March C-"}, Widths: []int{4}, Words: []int{3}, Classes: []string{"SAF", "TF"}}.Normalized()
	c := Cell{Test: "march cminus", Width: 4, Words: 3, Scheme: SchemeTWM, Mode: ModeSignature, Seed: 9}
	first := RunCell(spec, c)
	misses := metProgramMisses.Value()
	c.Test = "March C-"
	second := RunCell(spec, c)
	if d := metProgramMisses.Value() - misses; d != 0 {
		t.Errorf("catalog spelling after %q compiled again (%v misses)", "march cminus", d)
	}
	programs.mu.Lock()
	n := len(programs.m)
	programs.mu.Unlock()
	if n != 1 {
		t.Errorf("table holds %d entries after two spellings of one key, want 1", n)
	}
	first.Test, first.DurationNS, second.DurationNS = second.Test, 0, 0
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("results differ by spelling:\n%+v\n%+v", first, second)
	}
}

// The table is bounded by its key space: entering every valid key
// fills it exactly, and cells whose transform fails add nothing.
func TestProgramTableBounded(t *testing.T) {
	clearPrograms()
	widths := 0
	for w := 1; w <= word.MaxWidth; w *= 2 {
		widths++
		for _, e := range march.Catalog() {
			for _, scheme := range []string{SchemeTWM, SchemeOne} {
				for _, m := range []faultsim.DetectMode{faultsim.DirectCompare, faultsim.Signature} {
					if _, err := programs.lookup(Cell{Test: e.Name, Width: w, Scheme: scheme}, m); err != nil {
						t.Fatalf("%s W=%d %s %v: %v", e.Name, w, scheme, m, err)
					}
				}
			}
		}
	}
	for _, w := range []int{0, 3, 256} {
		if _, err := programs.lookup(Cell{Test: "MATS", Width: w, Scheme: SchemeTWM}, faultsim.DirectCompare); err == nil {
			t.Errorf("width %d compiled", w)
		}
	}
	programs.mu.Lock()
	n := len(programs.m)
	programs.mu.Unlock()
	if want := len(march.Catalog()) * widths * 2 * 2; n != want || maxPrograms != want {
		t.Errorf("table holds %d entries, cap %d; want both %d", n, maxPrograms, want)
	}
	clearPrograms()
}

// A failing cell reports the error string it always did — the first
// failure in the order test name, scheme, transform, fault population
// — whether the table is cold or warm.
func TestProgramTableErrors(t *testing.T) {
	spec := Spec{Tests: []string{"MATS"}, Widths: []int{4}, Words: []int{2}, Classes: []string{"SAF"}}.Normalized()
	errOf := func(_ any, err error) string { return err.Error() }
	mats := march.MustLookup("MATS")
	cases := []struct {
		cell Cell
		want string
	}{
		{Cell{Test: "no such test", Width: 4, Words: 2, Scheme: "bogus"}, errOf(march.Lookup("no such test"))},
		{Cell{Test: "MATS", Width: 4, Words: 2, Scheme: "bogus"}, `campaign: unknown scheme "bogus"`},
		{Cell{Test: "MATS", Width: 3, Words: 0, Scheme: SchemeTWM}, errOf(core.TWMTA(mats, 3))},
		{Cell{Test: "MATS", Width: 256, Words: 2, Scheme: SchemeOne}, errOf(core.Scheme1(mats, 256))},
		{Cell{Test: "MATS", Width: 256, Words: 2, Scheme: SchemeTWM}, errOf(core.TWMTA(mats, 256))},
		{Cell{Test: "MATS", Width: 4, Words: 0, Scheme: SchemeTWM}, errOf(FaultList(spec.Classes, 0, 0, 4))},
	}
	for _, temp := range []string{"cold", "warm"} {
		if temp == "cold" {
			clearPrograms()
		}
		for _, tc := range cases {
			for _, mode := range []string{ModeCompare, ModeSignature} {
				c := tc.cell
				c.Mode = mode
				if got := RunCell(spec, c).Err; got != tc.want {
					t.Errorf("%s table, cell %+v: error %q, want %q", temp, c, got, tc.want)
				}
			}
		}
	}
}
