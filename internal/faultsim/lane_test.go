package faultsim

import (
	"reflect"
	"sync"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
)

// laneVerdicts evaluates a list through DetectLane in LaneWidth chunks
// and returns per-fault booleans, for comparison against the scalar
// oracles.
func laneVerdicts(t *testing.T, ref *Reference, list []faults.Fault) []bool {
	t.Helper()
	out := make([]bool, len(list))
	for start := 0; start < len(list); start += LaneWidth {
		end := min(start+LaneWidth, len(list))
		bits, err := ref.DetectLane(list[start:end])
		if err != nil {
			t.Fatalf("DetectLane[%d:%d]: %v", start, end, err)
		}
		for j := start; j < end; j++ {
			out[j] = bits>>uint(j-start)&1 == 1
		}
	}
	return out
}

// The lane path must return bit-identical verdicts to the scalar
// reference replay (and transitively to the naive path) for every
// fault model in the library, across word widths and both detection
// modes — the acceptance gate of the lane engine.
func TestDetectLaneVsReferenceFullCatalog(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		list := fullCatalog(c.Words, c.Width)
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatalf("%s %dx%d %v: %v", c.Test.Name, c.Words, c.Width, c.Mode, err)
		}
		lane := laneVerdicts(t, ref.Reference, list)
		for i, f := range list {
			scalar, err := ref.Detects(f)
			if err != nil {
				t.Fatalf("scalar %s: %v", f, err)
			}
			if lane[i] != scalar {
				t.Errorf("%s %dx%d %v: fault %s: lane=%v scalar=%v",
					c.Test.Name, c.Words, c.Width, c.Mode, f, lane[i], scalar)
			}
		}
	}
}

// RunLanes must produce byte-for-byte identical Reports to the scalar
// reference Run and the naive loop — same tallies, same Missed list
// (order and cap included).
func TestRunLanesMatchesReferenceReport(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		list := fullCatalog(c.Words, c.Width)
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := ref.RunLanes(list)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := ref.Run(list)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes, scalar) {
			t.Errorf("%s %dx%d %v: lane and scalar reports differ:\nlane:   %+v\nscalar: %+v",
				c.Test.Name, c.Words, c.Width, c.Mode, lanes, scalar)
		}
		naive := c
		naive.Naive = true
		slow, err := Run(naive, list)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lanes, slow) {
			t.Errorf("%s %dx%d %v: lane and naive reports differ:\nlane:  %+v\nnaive: %+v",
				c.Test.Name, c.Words, c.Width, c.Mode, lanes, slow)
		}
	}
}

// Partial tail lanes: populations of 1, 63, 64 and 65 faults must
// produce the same verdicts as the scalar path, with the unused lanes'
// verdict bits masked off.
func TestDetectLanePartialLanes(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	full := fullCatalog(c.Words, c.Width)
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 63, 64, 65} {
		if n > len(full) {
			t.Fatalf("catalog too small for size %d", n)
		}
		list := full[:n]
		lane := laneVerdicts(t, ref.Reference, list)
		for i, f := range list {
			scalar, err := ref.Detects(f)
			if err != nil {
				t.Fatal(err)
			}
			if lane[i] != scalar {
				t.Errorf("size %d: fault %s: lane=%v scalar=%v", n, f, lane[i], scalar)
			}
		}
		if n < LaneWidth {
			bits, err := ref.DetectLane(list)
			if err != nil {
				t.Fatal(err)
			}
			if tail := bits >> uint(n); tail != 0 {
				t.Errorf("size %d: tail lanes carry verdict bits: %#x", n, tail)
			}
		}
	}
}

// A single-fault lane must agree with the scalar verdict for every
// fault class (each class exercises a different packing path).
func TestDetectLaneSingleFault(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, f := range fullCatalog(c.Words, c.Width) {
			if seen[f.Class()] {
				continue
			}
			seen[f.Class()] = true
			bits, err := ref.DetectLane([]faults.Fault{f})
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := ref.Detects(f)
			if err != nil {
				t.Fatal(err)
			}
			if (bits&1 == 1) != scalar {
				t.Errorf("%s %dx%d %v: single-fault lane %s: lane=%v scalar=%v",
					c.Test.Name, c.Words, c.Width, c.Mode, f, bits&1 == 1, scalar)
			}
		}
	}
}

// DetectLane on an empty slice is a no-op; beyond LaneWidth it must
// refuse rather than silently truncate.
func TestDetectLaneCapacity(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := ref.DetectLane(nil)
	if err != nil || bits != 0 {
		t.Errorf("empty lane: bits=%#x err=%v", bits, err)
	}
	list := fullCatalog(c.Words, c.Width)[:LaneWidth+1]
	if _, err := ref.DetectLane(list); err == nil {
		t.Error("DetectLane accepted more than LaneWidth faults")
	}
}

// Invalid faults must surface the same error message the scalar batch
// path reports, from the first offending fault in lane order.
func TestDetectLaneInjectError(t *testing.T) {
	c := equivalenceConfigs(t)[0]
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.StuckAt{Cell: faults.Site{Addr: 99, Bit: 0}, Value: 1}
	good := faults.StuckAt{Cell: faults.Site{Addr: 0, Bit: 0}, Value: 1}
	_, laneErr := ref.DetectLane([]faults.Fault{good, bad})
	if laneErr == nil {
		t.Fatal("DetectLane accepted an out-of-range fault")
	}
	_, scalarErr := ref.Run([]faults.Fault{good, bad})
	if scalarErr == nil {
		t.Fatal("scalar Run accepted an out-of-range fault")
	}
	if laneErr.Error() != scalarErr.Error() {
		t.Errorf("error mismatch:\nlane:   %v\nscalar: %v", laneErr, scalarErr)
	}
	if _, err := ref.RunLanes([]faults.Fault{good, bad}); err == nil || err.Error() != scalarErr.Error() {
		t.Errorf("RunLanes error mismatch: %v vs %v", err, scalarErr)
	}
}

// DetectLane checks arenas out of a pool, so concurrent calls from the
// campaign worker pool must agree with serial verdicts. Run under
// -race in CI.
func TestDetectLaneConcurrent(t *testing.T) {
	c := equivalenceConfigs(t)[2]
	list := fullCatalog(c.Words, c.Width)
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]faults.Fault
	for start := 0; start < len(list); start += LaneWidth {
		chunks = append(chunks, list[start:min(start+LaneWidth, len(list))])
	}
	serial := make([]uint64, len(chunks))
	for i, ch := range chunks {
		if serial[i], err = ref.DetectLane(ch); err != nil {
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
			for i := w; i < len(chunks); i += workers {
				bits, err := ref.DetectLane(chunks[i])
				if err != nil {
					errs <- err
					return
				}
				if bits != serial[i] {
					t.Errorf("chunk %d: concurrent=%#x serial=%#x", i, bits, serial[i])
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

// The lane engine keeps no state between calls: re-running the same
// chunks must reproduce identical verdict vectors (pooled arenas fully
// reset).
func TestDetectLaneRepeat(t *testing.T) {
	for _, sel := range []int{0, 1} { // one config per mode
		c := equivalenceConfigs(t)[sel]
		list := fullCatalog(c.Words, c.Width)
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		first := laneVerdicts(t, ref, list)
		second := laneVerdicts(t, ref, list)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%v: repeat lane verdicts differ", c.Mode)
		}
	}
}

// References of one shape share one process-wide lane pool, so an
// arena one reference checks in is checked out next by a reference
// with another program, other contents and another seed. Alternating
// such references on the shared pool, in both modes, must give the
// verdicts of fresh arenas, and those of the scalar oracle.
func TestSharedArenaPoolsMatchFreshArenas(t *testing.T) {
	twm, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.Scheme1(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	const words, width = 5, 4
	list := fullCatalog(words, width)
	var refs []*scalarRef
	for _, mode := range []DetectMode{DirectCompare, Signature} {
		for i, test := range []*march.Test{twm.TWMarch, s1.Test} {
			for _, seed := range []int64{int64(i) + 1, int64(i) + 100} {
				ref, err := newScalarRef(Campaign{Test: test, Words: words, Width: width, Mode: mode, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
			}
		}
	}
	for _, r := range refs[1:] {
		if shared := r.pool == refs[0].pool; shared != (r.mode == refs[0].mode) {
			t.Fatalf("mode %v shares pools with mode %v: %v", r.mode, refs[0].mode, shared)
		}
	}
	for start := 0; start < len(list); start += LaneWidth {
		chunk := list[start:min(start+LaneWidth, len(list))]
		for k, ref := range refs {
			got, err := ref.DetectLane(chunk)
			if err != nil {
				t.Fatal(err)
			}
			fresh := *ref.Reference
			fresh.pool = newArenaPool(arenaShape{words: words, width: width, mode: ref.mode})
			want, err := fresh.DetectLane(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ref %d chunk at %d: shared pools %#x, fresh arenas %#x", k, start, got, want)
			}
			for j, f := range chunk {
				det, err := ref.Detects(f)
				if err != nil {
					t.Fatal(err)
				}
				if det != (want>>uint(j)&1 == 1) {
					t.Fatalf("ref %d fault %s: scalar %v, lanes on fresh arenas %v", k, f, det, !det)
				}
			}
		}
	}
}

// NPSF packs write hooks on the victim and every valid neighbor; a
// bit-oriented campaign with the NPSF population in a single lane must
// match the scalar verdicts (covered by the full catalog at 9x1, but
// asserted here against the naive oracle directly for clarity).
func TestDetectLaneNPSFVsNaive(t *testing.T) {
	bt, err := core.TransformBitOriented(march.MustLookup("March C-"))
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Test: bt.Transparent, Words: 9, Width: 1, Mode: DirectCompare, Seed: 21}
	ref, err := NewReference(c)
	if err != nil {
		t.Fatal(err)
	}
	list := faults.EnumerateNPSF(3, 3)
	lane := laneVerdicts(t, ref, list)
	for i, f := range list {
		naive, err := Detects(c, f)
		if err != nil {
			t.Fatal(err)
		}
		if lane[i] != naive {
			t.Errorf("fault %s: lane=%v naive=%v", f, lane[i], naive)
		}
	}
}
