package faultsim

import (
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/march"
)

// FuzzDetectsFastVsNaive drives random (geometry, march test, scheme,
// seed, fault, mode) tuples through both simulation paths and requires
// identical verdicts. The seed corpus covers every fault class and
// both modes; the fuzzer then explores the configuration space.
func FuzzDetectsFastVsNaive(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), int64(1), uint16(0), false)
	f.Add(uint8(3), uint8(1), uint8(1), int64(7), uint16(40), true)
	f.Add(uint8(2), uint8(2), uint8(2), int64(42), uint16(97), true)
	f.Add(uint8(4), uint8(0), uint8(3), int64(-9), uint16(500), false)
	f.Add(uint8(5), uint8(2), uint8(4), int64(1<<40), uint16(9999), true)
	f.Add(uint8(2), uint8(1), uint8(5), int64(0), uint16(3), false)
	f.Fuzz(func(t *testing.T, wordsSel, widthSel, testSel uint8, seed int64, faultSel uint16, signature bool) {
		words := 2 + int(wordsSel)%3             // 2..4 words
		width := []int{2, 4, 8}[int(widthSel)%3] // power-of-two widths
		baseTests := []string{"MATS", "MATS+", "March C-", "March U"}
		base := march.MustLookup(baseTests[int(testSel)%len(baseTests)])
		var tst *march.Test
		if int(testSel)%2 == 0 {
			res, err := core.TWMTA(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.TWMarch
		} else {
			res, err := core.Scheme1(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.Test
		}
		list := fullCatalog(words, width)
		fault := list[int(faultSel)%len(list)]
		mode := DirectCompare
		if signature {
			mode = Signature
		}
		c := Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed}
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatalf("NewReference: %v", err)
		}
		fast, err := ref.Detects(fault)
		if err != nil {
			t.Fatalf("fast %s: %v", fault, err)
		}
		naive, err := Detects(c, fault)
		if err != nil {
			t.Fatalf("naive %s: %v", fault, err)
		}
		if fast != naive {
			t.Fatalf("%s %dx%d %v seed %d: fault %s: fast=%v naive=%v",
				tst.Name, words, width, mode, seed, fault, fast, naive)
		}
	})
}

// FuzzDetectLaneVsDetects drives random (geometry, march test, scheme,
// seed, chunk, mode) tuples through the bit-parallel lane path and the
// scalar reference replay and requires identical verdicts for every
// lane. The chunk is a window of the full catalog starting at a fuzzed
// offset with a fuzzed length, so tail-lane masking, mixed fault
// classes within one lane, and single-fault lanes are all explored.
func FuzzDetectLaneVsDetects(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), int64(1), uint16(0), uint8(63), false)
	f.Add(uint8(3), uint8(1), uint8(1), int64(7), uint16(40), uint8(0), true)
	f.Add(uint8(2), uint8(2), uint8(2), int64(42), uint16(97), uint8(62), true)
	f.Add(uint8(4), uint8(0), uint8(3), int64(-9), uint16(500), uint8(16), false)
	f.Add(uint8(5), uint8(2), uint8(4), int64(1<<40), uint16(9999), uint8(7), true)
	f.Add(uint8(2), uint8(1), uint8(5), int64(0), uint16(3), uint8(1), false)
	f.Fuzz(func(t *testing.T, wordsSel, widthSel, testSel uint8, seed int64, faultSel uint16, chunkSel uint8, signature bool) {
		words := 2 + int(wordsSel)%3             // 2..4 words
		width := []int{2, 4, 8}[int(widthSel)%3] // power-of-two widths
		baseTests := []string{"MATS", "MATS+", "March C-", "March U"}
		base := march.MustLookup(baseTests[int(testSel)%len(baseTests)])
		var tst *march.Test
		if int(testSel)%2 == 0 {
			res, err := core.TWMTA(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.TWMarch
		} else {
			res, err := core.Scheme1(base, width)
			if err != nil {
				t.Skip(err)
			}
			tst = res.Test
		}
		list := fullCatalog(words, width)
		start := int(faultSel) % len(list)
		n := 1 + int(chunkSel)%LaneWidth
		chunk := list[start:min(start+n, len(list))]
		mode := DirectCompare
		if signature {
			mode = Signature
		}
		c := Campaign{Test: tst, Words: words, Width: width, Mode: mode, Seed: seed}
		ref, err := newScalarRef(c)
		if err != nil {
			t.Fatalf("NewReference: %v", err)
		}
		bits, err := ref.DetectLane(chunk)
		if err != nil {
			t.Fatalf("DetectLane: %v", err)
		}
		for i, fault := range chunk {
			scalar, err := ref.Detects(fault)
			if err != nil {
				t.Fatalf("scalar %s: %v", fault, err)
			}
			if lane := bits>>uint(i)&1 == 1; lane != scalar {
				t.Fatalf("%s %dx%d %v seed %d: fault %s (lane %d): lane=%v scalar=%v",
					tst.Name, words, width, mode, seed, fault, i, lane, scalar)
			}
		}
	})
}
