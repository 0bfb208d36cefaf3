// Package faultsim runs fault-injection campaigns: it instantiates a
// memory, injects one modeled fault at a time, executes a march test
// against it and decides whether the test detected the fault.
//
// Two detection modes mirror the two ways a transparent BIST observes
// failures. DirectCompare checks every read against its expected
// value, modeling an ideal comparator (no aliasing). Signature runs
// the signature-prediction pass first, compresses both passes in a
// MISR and compares the signatures — the realistic transparent-BIST
// flow, including its aliasing behaviour.
//
// The Section 5 experiments of the paper are campaigns over exhaustive
// fault populations on small memories, comparing the transparent
// word-oriented test against its nontransparent counterpart.
//
// Evaluation has two implementations with bit-identical verdicts.
// Detects is the naive one-shot path: fresh memory, re-randomized
// contents and a full march per fault. Reference.DetectLane is the
// bit-parallel path: the test is compiled once into a Program that
// serves every memory size, bound to a configuration's initial
// contents, and up to 64 faults are packed into uint64 bit-planes and
// replayed against it at once (see lane.go). Run and Compare ride the
// lanes unless Campaign.Naive drops them to the one-shot loop. The
// tests keep a third, scalar replay — one fault per pass against the
// bound reference — as the oracle between the two.
package faultsim

import (
	"fmt"
	"sort"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/word"
)

// DetectMode selects the fault-observation mechanism.
type DetectMode int

const (
	// DirectCompare flags a fault when any read mismatches its
	// expected value (ideal comparator, alias-free).
	DirectCompare DetectMode = iota
	// Signature flags a fault when the MISR signature of the test pass
	// differs from the predicted signature.
	Signature
)

// String implements fmt.Stringer.
func (m DetectMode) String() string {
	switch m {
	case DirectCompare:
		return "direct-compare"
	case Signature:
		return "signature"
	default:
		return fmt.Sprintf("DetectMode(%d)", int(m))
	}
}

// Campaign describes a fault-simulation configuration.
type Campaign struct {
	// Test is the march test to evaluate. Signature mode requires it
	// to be transparent (prediction needs XOR-relative reads).
	Test *march.Test
	// Words and Width give the memory geometry; Width must match the
	// test width.
	Words, Width int
	// Mode selects the detection mechanism.
	Mode DetectMode
	// Seed randomizes the pre-existing memory contents.
	Seed int64
	// Initial, when non-nil, fixes the pre-existing contents instead
	// of randomizing (length must equal Words).
	Initial []word.Word
	// Naive forces Run and Compare onto the one-shot per-fault path
	// instead of the bit-parallel lane path. Verdicts are identical
	// either way (the equivalence suite asserts it over the full fault
	// catalog); the flag exists as a debugging escape hatch.
	Naive bool
}

// newMemory materializes the campaign's pre-existing contents. The
// randomized case uses the stateless splitmix64 stream of
// memory.RandomizeSeed — the same derivation on every call — so the
// naive path, the reference fast path and the diagnostic Syndrome run
// all see bit-identical initial data for one (geometry, seed).
func (c Campaign) newMemory() (*memory.Memory, error) {
	mem, err := memory.New(c.Words, c.Width)
	if err != nil {
		return nil, err
	}
	if c.Initial != nil {
		if err := mem.Restore(c.Initial); err != nil {
			return nil, err
		}
		return mem, nil
	}
	mem.RandomizeSeed(c.Seed)
	return mem, nil
}

// Detects runs one fault through the campaign configuration and
// reports whether the test caught it. This is the naive one-shot path:
// it allocates and initializes a fresh memory and replays the full
// march (and, in Signature mode, re-derives the prediction test) for
// the single fault. Batch callers should build a Reference once and
// use its lane path — same verdicts, amortized fault-free work.
func Detects(c Campaign, f faults.Fault) (bool, error) {
	if c.Test == nil {
		return false, fmt.Errorf("faultsim: campaign has no test")
	}
	if c.Test.Width != c.Width {
		return false, fmt.Errorf("faultsim: test width %d != campaign width %d", c.Test.Width, c.Width)
	}
	mem, err := c.newMemory()
	if err != nil {
		return false, err
	}
	inj, err := faults.Inject(mem, f)
	if err != nil {
		return false, err
	}
	switch c.Mode {
	case DirectCompare:
		res, err := march.Run(c.Test, inj, march.RunOptions{StopAtFirstMismatch: true})
		if err != nil {
			return false, err
		}
		return res.Detected(), nil
	case Signature:
		return detectsBySignature(c, inj)
	default:
		return false, fmt.Errorf("faultsim: unknown mode %v", c.Mode)
	}
}

func detectsBySignature(c Campaign, mem march.Mem) (bool, error) {
	pred, err := core.Prediction(c.Test)
	if err != nil {
		return false, err
	}
	reg, err := misr.New(c.Width)
	if err != nil {
		return false, err
	}
	// Prediction pass: reads only; the memory is untouched, so the
	// comparator expectations trivially hold and the MISR compresses
	// the mask-adjusted reads.
	reg.Reset(word.Zero)
	if _, err := march.Run(pred, mem, march.RunOptions{ReadSink: reg.PredictSink()}); err != nil {
		return false, err
	}
	predicted := reg.Signature()
	// Test pass: raw reads compressed.
	reg.Reset(word.Zero)
	if _, err := march.Run(c.Test, mem, march.RunOptions{ReadSink: reg.TestSink()}); err != nil {
		return false, err
	}
	return reg.Signature() != predicted, nil
}

// Syndrome runs the diagnostic pass for one fault: a full
// comparator-view execution of the campaign's test over a fresh
// fault-injected memory, recording up to maxMismatches failing reads
// (0 falls back to march.Run's default cap). Unlike Detects it never
// stops early — the complete mismatch log is the failure syndrome that
// internal/diagnose localizes faults from, the way a signature-based
// BIST re-runs a flagged memory in diagnostic mode to recover the
// per-read information the MISR compressed away (the fast-diagnosis
// flow of Wang, Wu & Ivanov).
func Syndrome(c Campaign, f faults.Fault, maxMismatches int) (march.Result, error) {
	if c.Test == nil {
		return march.Result{}, fmt.Errorf("faultsim: campaign has no test")
	}
	if c.Test.Width != c.Width {
		return march.Result{}, fmt.Errorf("faultsim: test width %d != campaign width %d", c.Test.Width, c.Width)
	}
	mem, err := c.newMemory()
	if err != nil {
		return march.Result{}, err
	}
	inj, err := faults.Inject(mem, f)
	if err != nil {
		return march.Result{}, err
	}
	return march.Run(c.Test, inj, march.RunOptions{MaxMismatches: maxMismatches})
}

// ClassStats aggregates detection per fault class.
type ClassStats struct {
	Total, Detected int
}

// Coverage returns the detected fraction (1 for an empty class).
func (s ClassStats) Coverage() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.Total)
}

// Report summarizes a campaign over a fault list.
type Report struct {
	Total, Detected int
	ByClass         map[string]ClassStats
	// Missed lists undetected faults, capped at 64.
	Missed []faults.Fault
}

// Coverage returns the overall detected fraction.
func (r *Report) Coverage() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Total)
}

// Classes returns the class labels in sorted order.
func (r *Report) Classes() []string {
	out := make([]string, 0, len(r.ByClass))
	for k := range r.ByClass {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the campaign over the fault list. By default it builds
// a Reference once for the configuration and rides the bit-parallel
// lane path (Reference.RunLanes); Campaign.Naive drops to the one-shot
// loop. The Report is byte-identical on both paths.
func Run(c Campaign, list []faults.Fault) (*Report, error) {
	if c.Naive {
		return runWith(func(f faults.Fault) (bool, error) { return Detects(c, f) }, list)
	}
	ref, err := NewReference(c)
	if err != nil {
		return nil, err
	}
	return ref.RunLanes(list)
}

// laneDetector returns the campaign's verdict function over up to
// LaneWidth faults, bit i of the result set when fs[i] is detected:
// the bound Reference's DetectLane, or the naive one-shot loop when
// Naive is set.
func (c Campaign) laneDetector() (func(fs []faults.Fault) (uint64, error), error) {
	if c.Naive {
		return func(fs []faults.Fault) (uint64, error) {
			var verdict uint64
			for i, f := range fs {
				d, err := Detects(c, f)
				if err != nil {
					return 0, fmt.Errorf("faultsim: %s: %v", f, err)
				}
				if d {
					verdict |= uint64(1) << uint(i)
				}
			}
			return verdict, nil
		}, nil
	}
	ref, err := NewReference(c)
	if err != nil {
		return nil, err
	}
	return ref.DetectLane, nil
}

// runWith folds per-fault verdicts into a Report: the tally loop of
// Run's naive path, whose Missed cap and order RunLanes reproduces.
func runWith(det func(faults.Fault) (bool, error), list []faults.Fault) (*Report, error) {
	rep := &Report{ByClass: make(map[string]ClassStats)}
	for _, f := range list {
		d, err := det(f)
		if err != nil {
			return nil, fmt.Errorf("faultsim: %s: %v", f, err)
		}
		rep.Total++
		cs := rep.ByClass[f.Class()]
		cs.Total++
		if d {
			rep.Detected++
			cs.Detected++
		} else if len(rep.Missed) < 64 {
			rep.Missed = append(rep.Missed, f)
		}
		rep.ByClass[f.Class()] = cs
	}
	return rep, nil
}

// Disagreement records a fault two campaigns judged differently.
type Disagreement struct {
	Fault                faults.Fault
	DetectedA, DetectedB bool
}

// Equivalence compares per-fault detection between two campaigns.
type Equivalence struct {
	Both, OnlyA, OnlyB, Neither int
	// Disagreements lists faults detected by exactly one side, capped
	// at 64.
	Disagreements []Disagreement
}

// Equal reports whether the two campaigns detect exactly the same
// fault set.
func (e *Equivalence) Equal() bool { return e.OnlyA == 0 && e.OnlyB == 0 }

// Compare runs both campaigns over the fault list and reports where
// their verdicts differ. This is the paper's Section 5 experiment: the
// transparent word-oriented test must preserve the coverage of its
// nontransparent counterpart. Each side evaluates LaneWidth faults at
// a time through its own Reference, or through the one-shot loop when
// its Naive flag is set.
func Compare(a, b Campaign, list []faults.Fault) (*Equivalence, error) {
	detA, err := a.laneDetector()
	if err != nil {
		return nil, fmt.Errorf("faultsim: campaign A: %v", err)
	}
	detB, err := b.laneDetector()
	if err != nil {
		return nil, fmt.Errorf("faultsim: campaign B: %v", err)
	}
	eq := &Equivalence{}
	for start := 0; start < len(list); start += LaneWidth {
		chunk := list[start:min(start+LaneWidth, len(list))]
		va, err := detA(chunk)
		if err != nil {
			return nil, fmt.Errorf("faultsim: campaign A: %v", err)
		}
		vb, err := detB(chunk)
		if err != nil {
			return nil, fmt.Errorf("faultsim: campaign B: %v", err)
		}
		for i, f := range chunk {
			da, db := va>>uint(i)&1 == 1, vb>>uint(i)&1 == 1
			switch {
			case da && db:
				eq.Both++
			case da:
				eq.OnlyA++
			case db:
				eq.OnlyB++
			default:
				eq.Neither++
			}
			if da != db && len(eq.Disagreements) < 64 {
				eq.Disagreements = append(eq.Disagreements, Disagreement{Fault: f, DetectedA: da, DetectedB: db})
			}
		}
	}
	return eq, nil
}

// AllContents reports whether the campaign's test detects the fault
// for every possible initial memory content. The exhaustive sweep has
// 2^(Words·Width) cases and is intended for tiny geometries; it errors
// above 16 total bits. The paper's coverage theorem is per arbitrary
// initial data, which this verifies directly.
func AllContents(c Campaign, f faults.Fault) (bool, []word.Word, error) {
	bits := c.Words * c.Width
	if bits > 16 {
		return false, nil, fmt.Errorf("faultsim: exhaustive contents need ≤16 total bits, have %d", bits)
	}
	for v := 0; v < 1<<uint(bits); v++ {
		contents := make([]word.Word, c.Words)
		for i := 0; i < c.Words; i++ {
			chunk := (v >> uint(i*c.Width)) & ((1 << uint(c.Width)) - 1)
			contents[i] = word.FromUint64(uint64(chunk))
		}
		cc := c
		cc.Initial = contents
		det, err := Detects(cc, f)
		if err != nil {
			return false, nil, err
		}
		if !det {
			return false, contents, nil
		}
	}
	return true, nil, nil
}
