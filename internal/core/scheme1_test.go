package core

import (
	"math/rand"
	"testing"

	"twmarch/internal/databg"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/word"
)

// Section 3 example: the 4-bit word-oriented March C- uses backgrounds
// 0000, 0101, 0011, and Scheme 1 transforms each part.
func TestScheme1Backgrounds(t *testing.T) {
	res, err := Scheme1(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0000", "0101", "0011"}
	if len(res.Backgrounds) != len(want) {
		t.Fatalf("backgrounds = %d, want %d", len(res.Backgrounds), len(want))
	}
	for i, b := range res.Backgrounds {
		if got := b.Bits(4); got != want[i] {
			t.Errorf("b%d = %s, want %s", i+1, got, want[i])
		}
	}
	if len(res.Parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(res.Parts))
	}
}

// Constructive op count: part 1 drops its initialization (M-1 ops),
// each later part keeps it with a prepended read (M+1 ops), and the
// restore element adds 2, giving (M+1)(log2 W + 1) for sources ending
// away from the all-zero state.
func TestScheme1ConstructiveComplexity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int
	}{
		{"March C-", 4}, {"March C-", 32}, {"March U", 8}, {"March U", 128},
	} {
		bm := march.MustLookup(tc.name)
		res, err := Scheme1(bm, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		L := databg.MustLog2(tc.width) + 1
		M := bm.Ops()
		if got, want := res.TCM(), (M+1)*L; got != want {
			t.Errorf("%s W=%d: TCM = %d, want %d", tc.name, tc.width, got, want)
		}
		Q := bm.Reads()
		// Reads: Q in part 1, Q+1 in each later part, 1 in the restore.
		if got, want := res.TCP(), Q+(L-1)*(Q+1)+1; got != want {
			t.Errorf("%s W=%d: TCP = %d, want %d", tc.name, tc.width, got, want)
		}
	}
}

// Scheme 1 must also be transparent: pass and preserve arbitrary
// fault-free contents.
func TestScheme1Transparency(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, name := range []string{"MATS++", "March C-", "March U", "March B"} {
		for _, width := range []int{4, 16} {
			res, err := Scheme1(march.MustLookup(name), width)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mem := memory.MustNew(10, width)
			mem.Randomize(r)
			before := mem.Snapshot()
			run, err := march.Run(res.Test, mem, march.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if run.Detected() {
				t.Fatalf("%s W=%d: fault-free Scheme1 run mismatched: %v", name, width, run.Mismatches[0])
			}
			if !mem.Equal(before) {
				t.Fatalf("%s W=%d: contents not preserved", name, width)
			}
		}
	}
}

func TestScheme1PartsAreLabelled(t *testing.T) {
	res, err := Scheme1(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Part 2 data should print with b2 labels.
	ascii := res.Parts[1].ASCII()
	if want := "a^b2"; !containsStr(ascii, want) {
		t.Fatalf("part 2 = %s, want %s labels", ascii, want)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestScheme1PredictionReadsOnly(t *testing.T) {
	res, err := Scheme1(march.MustLookup("March U"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prediction.Writes() != 0 {
		t.Fatal("prediction contains writes")
	}
	if res.Prediction.Reads() != res.Test.Reads() {
		t.Fatal("prediction loses reads")
	}
}

func TestScheme1Errors(t *testing.T) {
	if _, err := Scheme1(march.MustParse("w", "{any(w01)}"), 8); err == nil {
		t.Error("non-bit test accepted")
	}
	if _, err := Scheme1(march.MustLookup("March C-"), 10); err == nil {
		t.Error("non-power-of-two width accepted")
	}
	if _, err := Scheme1(march.MustParse("noreads", "{any(w0)}"), 8); err == nil {
		t.Error("read-free test accepted")
	}
	// Powers of two past word.MaxWidth have no word to hold their
	// backgrounds; they must error like TWMTA does, not panic.
	for _, w := range []int{2 * word.MaxWidth, 4 * word.MaxWidth} {
		if _, err := Scheme1(march.MustLookup("MATS"), w); err == nil {
			t.Errorf("width %d accepted", w)
		}
		if _, err := TWMTA(march.MustLookup("MATS"), w); err == nil {
			t.Errorf("TWMTA accepted width %d", w)
		}
		if _, err := WordOriented(march.MustLookup("MATS"), w); err == nil {
			t.Errorf("WordOriented accepted width %d", w)
		}
	}
}

// Scheme 1 is never shorter than TWM_TA, and strictly longer for every
// realistic test (the tiny MATS family can tie at small widths because
// its per-background replay is nearly as short as the ATMarch
// overhead) — the paper's comparison in Table 2/3.
func TestScheme1NeverShorterThanTWMTA(t *testing.T) {
	strict := map[string]bool{
		"March X": true, "March Y": true, "March C": true, "March C-": true,
		"March A": true, "March B": true, "March U": true, "March LR": true,
	}
	for _, e := range march.Catalog() {
		for _, width := range []int{4, 16, 64} {
			bm := march.MustLookup(e.Name)
			s1, err := Scheme1(bm, width)
			if err != nil {
				t.Fatal(err)
			}
			tw, err := TWMTA(bm, width)
			if err != nil {
				t.Fatal(err)
			}
			s1Total, twTotal := s1.TCM()+s1.TCP(), tw.TCM()+tw.TCP()
			if s1Total < twTotal {
				t.Errorf("%s W=%d: Scheme1 total %d shorter than TWM_TA total %d",
					e.Name, width, s1Total, twTotal)
			}
			if strict[e.Name] && s1Total <= twTotal {
				t.Errorf("%s W=%d: Scheme1 total %d not strictly longer than TWM_TA total %d",
					e.Name, width, s1Total, twTotal)
			}
		}
	}
}

func TestWordOriented(t *testing.T) {
	bm := march.MustLookup("March C-")
	wt, err := WordOriented(bm, 4)
	if err != nil {
		t.Fatal(err)
	}
	L := databg.MustLog2(4) + 1
	if got, want := wt.Ops(), bm.Ops()*L; got != want {
		t.Fatalf("word-oriented ops = %d, want %d", got, want)
	}
	// Runs clean on a zeroed memory (its own initialization writes
	// all backgrounds).
	mem := memory.MustNew(8, 4)
	run, err := march.Run(wt, mem, march.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Detected() {
		t.Fatalf("fault-free word-oriented run mismatched: %v", run.Mismatches)
	}
	// Final contents are the last background written back.
	if got := mem.Read(0); got != word.MustParseBits("0011") {
		t.Fatalf("final contents = %s", got.Bits(4))
	}
}

func TestWordOrientedErrors(t *testing.T) {
	if _, err := WordOriented(march.MustParse("w", "{any(w01)}"), 8); err == nil {
		t.Error("non-bit test accepted")
	}
	if _, err := WordOriented(march.MustLookup("March C-"), 6); err == nil {
		t.Error("non-power-of-two width accepted")
	}
}
