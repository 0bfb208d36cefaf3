package faultsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// fullCatalog enumerates every fault model the library implements at
// one geometry: the Section 2 population (SAF, TF, CFst, CFid, CFin
// over all pairs), address-decoder faults, linked idempotent coupling,
// dynamic read disturbs (RDF/DRDF), and — on bit-oriented grids with
// interior cells — static NPSF.
func fullCatalog(words, width int) []faults.Fault {
	list := faults.EnumerateAll(words, width)
	list = append(list, faults.EnumerateAddrFaults(words)...)
	list = append(list, faults.EnumerateLinkedCFid(words, width)...)
	list = append(list, faults.EnumerateReadDestructive(words, width)...)
	if width == 1 && words == 9 {
		list = append(list, faults.EnumerateNPSF(3, 3)...)
	}
	return list
}

// equivalenceConfigs returns the campaign configurations the fast/naive
// equivalence suite exercises: word-oriented TWMarch and Scheme 1
// tests, a bit-oriented transparent march with NPSF in the population,
// and the small odd-sized memories campaign grids run (5×4, 8×2), in
// both detection modes.
func equivalenceConfigs(t *testing.T) []Campaign {
	t.Helper()
	twm, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := core.TWMTA(march.MustLookup("March U"), 8)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Scheme1(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := core.TransformBitOriented(march.MustLookup("March C-"))
	if err != nil {
		t.Fatal(err)
	}
	s1w2, err := core.Scheme1(march.MustLookup("March X"), 2)
	if err != nil {
		t.Fatal(err)
	}
	return []Campaign{
		{Test: twm.TWMarch, Words: 3, Width: 4, Mode: DirectCompare, Seed: 1},
		{Test: twm.TWMarch, Words: 3, Width: 4, Mode: Signature, Seed: 1},
		{Test: twm.TWMarch, Words: 4, Width: 4, Mode: Signature, Seed: 99},
		{Test: mu.TWMarch, Words: 2, Width: 8, Mode: DirectCompare, Seed: 7},
		{Test: mu.TWMarch, Words: 2, Width: 8, Mode: Signature, Seed: 7},
		{Test: s1.Test, Words: 3, Width: 4, Mode: DirectCompare, Seed: 3},
		{Test: s1.Test, Words: 3, Width: 4, Mode: Signature, Seed: 3},
		{Test: bt.Transparent, Words: 9, Width: 1, Mode: DirectCompare, Seed: 11},
		{Test: bt.Transparent, Words: 9, Width: 1, Mode: Signature, Seed: 11},
		{Test: twm.TWMarch, Words: 5, Width: 4, Mode: DirectCompare, Seed: 13},
		{Test: twm.TWMarch, Words: 5, Width: 4, Mode: Signature, Seed: 13},
		{Test: s1w2.Test, Words: 8, Width: 2, Mode: DirectCompare, Seed: 17},
		{Test: s1w2.Test, Words: 8, Width: 2, Mode: Signature, Seed: 17},
	}
}

// The reference-trace fast path must return bit-identical verdicts to
// the naive one-shot path for every fault model in the library, in
// both detection modes — the acceptance gate of the fast path.
func TestFastVsNaiveFullCatalog(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		list := fullCatalog(c.Words, c.Width)
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatalf("%s %dx%d %v: %v", c.Test.Name, c.Words, c.Width, c.Mode, err)
		}
		for _, f := range list {
			naive, err := Detects(c, f)
			if err != nil {
				t.Fatalf("naive %s: %v", f, err)
			}
			fast, err := ref.Detects(f)
			if err != nil {
				t.Fatalf("fast %s: %v", f, err)
			}
			if naive != fast {
				t.Errorf("%s %dx%d %v: fault %s: naive=%v fast=%v",
					c.Test.Name, c.Words, c.Width, c.Mode, f, naive, fast)
			}
		}
	}
}

// Run must produce byte-for-byte identical Reports on both paths —
// same tallies, same Missed list (order and cap included).
func TestRunFastMatchesNaiveReport(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		list := fullCatalog(c.Words, c.Width)
		fast, err := Run(c, list)
		if err != nil {
			t.Fatal(err)
		}
		naive := c
		naive.Naive = true
		slow, err := Run(naive, list)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s %dx%d %v: fast and naive reports differ:\nfast:  %+v\nnaive: %+v",
				c.Test.Name, c.Words, c.Width, c.Mode, fast, slow)
		}
	}
}

// A Reference is reusable: running the same list twice must give
// identical reports (the pooled arena leaks no state between faults or
// runs).
func TestReferenceRunTwice(t *testing.T) {
	c := equivalenceConfigs(t)[1] // signature mode exercises the MISR resume
	list := fullCatalog(c.Words, c.Width)
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ref.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ref.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeat run differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// A Reference must be safe under the campaign worker pool: concurrent
// Detects calls (each checking out a pooled arena) must agree with the
// serial verdicts. Run under -race in CI.
func TestReferenceConcurrentDetects(t *testing.T) {
	c := equivalenceConfigs(t)[2]
	list := fullCatalog(c.Words, c.Width)
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]bool, len(list))
	for i, f := range list {
		if serial[i], err = ref.Detects(f); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(list); i += workers {
				det, err := ref.Detects(list[i])
				if err != nil {
					errs <- err
					return
				}
				if det != serial[i] {
					t.Errorf("fault %s: concurrent=%v serial=%v", list[i], det, serial[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Compare accepts a different path per side; verdicts must not depend
// on the combination.
func TestCompareMixedPaths(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Scheme1(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: DirectCompare, Seed: 5}
	b := Campaign{Test: s1.Test, Words: 3, Width: 4, Mode: DirectCompare, Seed: 5}
	list := fullCatalog(3, 4)
	fast, err := Compare(a, b, list)
	if err != nil {
		t.Fatal(err)
	}
	an, bn := a, b
	an.Naive = true
	bn.Naive = true
	slow, err := Compare(an, bn, list)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Compare(an, b, list)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) || !reflect.DeepEqual(fast, mixed) {
		t.Errorf("Compare path combinations disagree:\nfast:  %+v\nnaive: %+v\nmixed: %+v", fast, slow, mixed)
	}
}

// The reference honors fixed initial contents the same way the naive
// path does.
func TestReferenceFixedInitial(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	initial := []word.Word{word.FromUint64(0xa), word.FromUint64(0x5), word.FromUint64(0xf)}
	c := Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: Signature, Initial: initial}
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fullCatalog(3, 4) {
		naive, err := Detects(c, f)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ref.Detects(f)
		if err != nil {
			t.Fatal(err)
		}
		if naive != fast {
			t.Errorf("fixed contents: fault %s: naive=%v fast=%v", f, naive, fast)
		}
	}
}

// NewReference surfaces the same configuration errors the naive path
// reports per fault.
func TestNewReferenceErrors(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    Campaign
	}{
		{"no test", Campaign{Words: 3, Width: 4}},
		{"width mismatch", Campaign{Test: res.TWMarch, Words: 3, Width: 8}},
		{"nontransparent signature", Campaign{Test: march.MustLookup("March C-"), Words: 3, Width: 1, Mode: Signature}},
		{"bad geometry", Campaign{Test: res.TWMarch, Words: 0, Width: 4}},
		{"bad initial length", Campaign{Test: res.TWMarch, Words: 3, Width: 4, Initial: []word.Word{word.Zero}}},
		{"unknown mode", Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: DetectMode(42)}},
	}
	for _, tc := range cases {
		if _, err := NewReference(tc.c); err == nil {
			t.Errorf("%s: NewReference accepted a bad campaign", tc.name)
		}
	}
}

// Faults whose sites fall outside the geometry must error identically
// through the reference (Inject runs per fault on both paths).
func TestReferenceInjectError(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: DirectCompare, Seed: 1}
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.StuckAt{Cell: faults.Site{Addr: 99, Bit: 0}, Value: 1}
	if _, err := ref.Detects(bad); err == nil {
		t.Error("fast path accepted an out-of-range fault")
	}
	if _, err := Detects(c, bad); err == nil {
		t.Error("naive path accepted an out-of-range fault")
	}
}

// pointers returns a copy of list with each fault replaced by a
// pointer to a copy of it.
func pointers(list []faults.Fault) []faults.Fault {
	out := make([]faults.Fault, len(list))
	for i, f := range list {
		p := reflect.New(reflect.TypeOf(f))
		p.Elem().Set(reflect.ValueOf(f))
		out[i] = p.Interface().(faults.Fault)
	}
	return out
}

// sameReport reports whether two Reports agree, Missed compared by
// fault name so a pointer and its value count as the same fault.
func sameReport(a, b *Report) bool {
	return a.Total == b.Total && a.Detected == b.Detected && reflect.DeepEqual(a.ByClass, b.ByClass) &&
		fmt.Sprint(a.Missed) == fmt.Sprint(b.Missed)
}

// A pointer to a fault is the fault: a pointer copy of a population
// gets the Report of its values on the lanes and on the naive path, in
// both modes, and an out-of-range pointer gets its value's error.
func TestPointerFaultsMatchValues(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	values := faults.EnumerateAll(3, 4)
	for _, tc := range []struct {
		mode     DetectMode
		detected int
	}{{DirectCompare, 1272}, {Signature, 1259}} {
		for _, naive := range []bool{false, true} {
			c := Campaign{Test: twm.TWMarch, Words: 3, Width: 4, Mode: tc.mode, Seed: 5, Naive: naive}
			want, err := Run(c, values)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(c, pointers(values))
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != 1368 || got.Detected != tc.detected || !sameReport(got, want) {
				t.Errorf("%v naive=%v: pointers %d/%d, values %d/%d", tc.mode, naive, got.Detected, got.Total, want.Detected, want.Total)
			}
			bad := faults.StuckAt{Cell: faults.Site{Addr: 99}}
			_, verr := Run(c, []faults.Fault{bad})
			_, perr := Run(c, []faults.Fault{&bad})
			if verr == nil || perr == nil || perr.Error() != verr.Error() {
				t.Errorf("%v naive=%v: pointer error %v, value error %v", tc.mode, naive, perr, verr)
			}
		}
	}
	// Every fault type, on the lanes.
	for _, c := range equivalenceConfigs(t) {
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		list := fullCatalog(c.Words, c.Width)
		want, err := ref.RunLanes(list)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ref.RunLanes(pointers(list))
		if err != nil {
			t.Fatal(err)
		}
		if !sameReport(got, want) {
			t.Errorf("%s %dx%d %v: pointer and value reports differ", c.Test.Name, c.Words, c.Width, c.Mode)
		}
	}
}
