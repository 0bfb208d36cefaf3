// Package campaign runs test campaigns: declarative grids over march
// tests, word widths, memory sizes, transformation schemes, detection
// modes and fault populations, fanned out over a worker pool and
// folded into one deterministic aggregate.
//
// A campaign is the fleet-scale counterpart of a single faultsim run.
// The paper evaluates one memory at a time; a production BIST service
// must characterize thousands of (memory geometry × march test ×
// fault model) configurations, the way a shared controller tests many
// distributed embedded SRAMs. The engine shards the grid into batches,
// derives an independent PRNG seed per cell (so results never depend
// on scheduling), and streams batched results into an aggregator that
// slots them by cell index — the aggregate is byte-identical whether
// the grid ran on one worker or many.
package campaign

import (
	"fmt"

	"twmarch/internal/databg"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// Default grid dimensions applied by Normalized when a field is empty.
var (
	// DefaultClasses is the fault population enumerated per cell.
	DefaultClasses = []string{"SAF", "TF", "CFst", "CFid", "CFin"}
	// DefaultSchemes runs the proposed transparent word-oriented test
	// and the per-background Scheme 1 baseline.
	DefaultSchemes = []string{SchemeTWM, SchemeOne}
	// DefaultModes runs the ideal comparator only; add ModeSignature
	// for the realistic MISR flow including aliasing.
	DefaultModes = []string{ModeCompare}
)

// Grid limits enforced by Validate and Cells. They bound what one
// campaign can ask of the engine — cmd/twmd accepts specs from the
// network, so a typo'd geometry must not pin the daemon.
const (
	// MaxWords bounds a single cell's memory size.
	MaxWords = 1 << 16
	// MaxCells bounds the expanded grid.
	MaxCells = 1 << 16
	// MaxCouplingBits bounds words×width when the fault population
	// includes a coupling class: pair enumeration is quadratic in the
	// bit count, so without this cap one cell could allocate an
	// arbitrarily large fault list.
	MaxCouplingBits = 1 << 11
	// MaxWorkers bounds Spec.Workers: a network-submitted spec must not
	// ask the engine for an arbitrary number of goroutines.
	MaxWorkers = 256
)

// Scheme names accepted in Spec.Schemes.
const (
	// SchemeTWM is the paper's TWM_TA transformation (Algorithm 1).
	SchemeTWM = "twm"
	// SchemeOne is the per-background Scheme 1 baseline of [12].
	SchemeOne = "scheme1"
)

// Mode names accepted in Spec.Modes.
const (
	// ModeCompare checks every read against its expected value.
	ModeCompare = "compare"
	// ModeSignature compares MISR signatures against the predicted
	// signature, including aliasing behaviour.
	ModeSignature = "signature"
)

// Spec declares a campaign as a grid: the cross product of Tests ×
// Widths × Words × Schemes × Modes, each cell simulated against the
// fault population described by Classes and Scope. The zero values of
// the optional fields are filled in by Normalized. Spec marshals
// to/from JSON; this is the wire format cmd/twmd accepts.
type Spec struct {
	// Name labels the campaign in reports and daemon listings.
	Name string `json:"name,omitempty"`
	// Tests are catalog march-test names (see march.Catalog).
	Tests []string `json:"tests"`
	// Widths are word widths; power-of-two, ≤ word.MaxWidth.
	Widths []int `json:"widths"`
	// Words are memory sizes in words.
	Words []int `json:"words"`
	// Schemes selects the transformations to evaluate ("twm",
	// "scheme1"); empty means both.
	Schemes []string `json:"schemes,omitempty"`
	// Modes selects detection mechanisms ("compare", "signature");
	// empty means compare only.
	Modes []string `json:"modes,omitempty"`
	// Classes are the fault classes enumerated per cell; empty means
	// DefaultClasses. Also accepted: "AF", "Linked".
	Classes []string `json:"classes,omitempty"`
	// Scope restricts coupling pairs: "all" (default), "intra",
	// "inter".
	Scope string `json:"scope,omitempty"`
	// Seed is the campaign base seed; each cell derives its own
	// initial-contents seed from it, independent of scheduling.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds engine concurrency; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Batch is the shard size handed to a worker at once; 0 picks a
	// size that keeps every worker busy.
	Batch int `json:"batch,omitempty"`
	// Naive forces the naive per-fault simulation path instead of the
	// bit-parallel lane path (one fault-free reference per cell, shared
	// across the cell's fault population, up to 64 faults per replay).
	// Results are bit-identical either way — the flag is a debugging
	// escape hatch and is zeroed in the canonical aggregate like the
	// other scheduling knobs.
	Naive bool `json:"naive,omitempty"`
	// Pipeline, when enabled, runs the diagnosis-and-repair stage
	// after detection: mismatch syndromes are diagnosed, suspect sites
	// fed to the spare-row/column allocator, and test escapes checked
	// against a field-ECC model. See PipelineSpec.
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
}

// Normalized returns a copy with defaults filled in.
func (s Spec) Normalized() Spec {
	if len(s.Schemes) == 0 {
		s.Schemes = append([]string(nil), DefaultSchemes...)
	}
	if len(s.Modes) == 0 {
		s.Modes = append([]string(nil), DefaultModes...)
	}
	if len(s.Classes) == 0 {
		s.Classes = append([]string(nil), DefaultClasses...)
	}
	if s.Scope == "" {
		s.Scope = "all"
	}
	return s
}

// Validate checks the grid before expansion. It works on the
// normalized spec.
func (s Spec) Validate() error {
	s = s.Normalized()
	if len(s.Tests) == 0 {
		return fmt.Errorf("campaign: spec has no tests")
	}
	if len(s.Widths) == 0 {
		return fmt.Errorf("campaign: spec has no widths")
	}
	if len(s.Words) == 0 {
		return fmt.Errorf("campaign: spec has no words")
	}
	for _, name := range s.Tests {
		if _, err := march.Lookup(name); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
	}
	for _, w := range s.Widths {
		if _, err := databg.Log2(w); err != nil {
			return fmt.Errorf("campaign: width %d: %v", w, err)
		}
		if w > word.MaxWidth {
			return fmt.Errorf("campaign: width %d above the %d-bit word limit", w, word.MaxWidth)
		}
	}
	for _, n := range s.Words {
		if n < 2 || n > MaxWords {
			return fmt.Errorf("campaign: words %d out of range [2, %d]", n, MaxWords)
		}
	}
	if n := s.CellCount(); n > MaxCells {
		return fmt.Errorf("campaign: grid has %d cells (max %d)", n, MaxCells)
	}
	for _, sc := range s.Schemes {
		if sc != SchemeTWM && sc != SchemeOne {
			return fmt.Errorf("campaign: unknown scheme %q", sc)
		}
	}
	for _, m := range s.Modes {
		if m != ModeCompare && m != ModeSignature {
			return fmt.Errorf("campaign: unknown mode %q", m)
		}
	}
	scope, err := PairScope(s.Scope)
	if err != nil {
		return err
	}
	if quadraticClasses(s.Classes) {
		for _, n := range s.Words {
			for _, w := range s.Widths {
				if n*w > MaxCouplingBits {
					return fmt.Errorf("campaign: %d×%d memory has %d bits, above the %d-bit coupling-fault limit",
						n, w, n*w, MaxCouplingBits)
				}
			}
		}
	}
	for _, c := range s.Classes {
		if !knownClass(c) {
			return fmt.Errorf("campaign: unknown fault class %q", c)
		}
	}
	// Probe the fault population at the grid's smallest geometry with
	// the spec's actual scope. Enumeration is monotone in words and
	// width and every class's existence threshold is ≤ 2 cells/bits, so
	// the probe geometry can be clamped to 4×4: emptiness there equals
	// emptiness at any geometry at least as large, and the probe never
	// allocates more than a handful of faults on the submit path.
	// Classes are probed one at a time with an early exit.
	pw, pb := minOf(s.Words), minOf(s.Widths)
	if pw > 4 {
		pw = 4
	}
	if pb > 4 {
		pb = 4
	}
	empty := true
	for _, c := range s.Classes {
		if list, err := FaultList([]string{c}, scope, pw, pb); err == nil && len(list) > 0 {
			empty = false
			break
		}
	}
	if empty {
		return fmt.Errorf("campaign: empty fault population at the %d×%d grid minimum (scope %s)",
			minOf(s.Words), minOf(s.Widths), s.Scope)
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("campaign: workers %d out of range [0, %d]", s.Workers, MaxWorkers)
	}
	if s.Batch < 0 {
		return fmt.Errorf("campaign: negative batch %d", s.Batch)
	}
	if err := s.Pipeline.validate(s.Widths); err != nil {
		return err
	}
	return nil
}

// Cell is one point of the campaign grid, self-describing so a worker
// needs nothing but the cell (plus the spec's fault population) to run
// it.
type Cell struct {
	// Index is the cell's position in grid order; the aggregator slots
	// results by it.
	Index int `json:"index"`
	// Test is the catalog march-test name.
	Test string `json:"test"`
	// Width and Words give the memory geometry.
	Width int `json:"width"`
	Words int `json:"words"`
	// Scheme and Mode name the transformation and detection mechanism.
	Scheme string `json:"scheme"`
	Mode   string `json:"mode"`
	// Seed is the cell's derived initial-contents seed.
	Seed int64 `json:"seed"`
}

// knownClass reports whether name is an accepted fault class.
func knownClass(name string) bool {
	switch name {
	case "SAF", "TF", "CFst", "CFid", "CFin", "AF", "Linked":
		return true
	}
	return false
}

// quadraticClasses reports whether the class list contains a coupling
// class, whose enumeration is quadratic in the memory's bit count.
func quadraticClasses(classes []string) bool {
	for _, c := range classes {
		switch c {
		case "CFst", "CFid", "CFin", "Linked":
			return true
		}
	}
	return false
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CellCount returns the size of the expanded grid without expanding
// it. The product saturates at MaxCells+1 so oversized grids cannot
// wrap around the int range and slip past the MaxCells check.
func (s Spec) CellCount() int {
	s = s.Normalized()
	n := 1
	for _, d := range []int{len(s.Tests), len(s.Widths), len(s.Words), len(s.Schemes), len(s.Modes)} {
		if d == 0 {
			return 0
		}
		if n > MaxCells/d {
			return MaxCells + 1
		}
		n *= d
	}
	return n
}

// Cells expands the normalized grid in deterministic order: tests
// outermost, then widths, words, schemes, modes. Each cell's seed is
// derived from the base seed and the cell index with a splitmix64
// step, so cell results are a pure function of (spec, index).
func (s Spec) Cells() ([]Cell, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var cells []Cell
	for _, test := range s.Tests {
		for _, width := range s.Widths {
			for _, words := range s.Words {
				for _, scheme := range s.Schemes {
					for _, mode := range s.Modes {
						idx := len(cells)
						cells = append(cells, Cell{
							Index:  idx,
							Test:   test,
							Width:  width,
							Words:  words,
							Scheme: scheme,
							Mode:   mode,
							Seed:   deriveSeed(s.Seed, idx),
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// deriveSeed mixes the campaign base seed with a cell index using the
// splitmix64 finalizer, giving every cell an independent stream.
func deriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// PairScope parses a Spec.Scope value.
func PairScope(scope string) (faults.PairScope, error) {
	switch scope {
	case "", "all":
		return faults.AllPairs, nil
	case "intra":
		return faults.IntraWordPairs, nil
	case "inter":
		return faults.InterWordPairs, nil
	default:
		return 0, fmt.Errorf("campaign: unknown pair scope %q", scope)
	}
}

// FaultList enumerates the fault population for one cell geometry.
// Class names match cmd/faultsim: SAF, TF, CFst, CFid, CFin, AF,
// Linked.
func FaultList(classes []string, scope faults.PairScope, words, width int) ([]faults.Fault, error) {
	var out []faults.Fault
	for _, c := range classes {
		switch c {
		case "SAF":
			out = append(out, faults.EnumerateStuckAt(words, width)...)
		case "TF":
			out = append(out, faults.EnumerateTransition(words, width)...)
		case "CFst":
			out = append(out, faults.EnumerateCFst(words, width, scope)...)
		case "CFid":
			out = append(out, faults.EnumerateCFid(words, width, scope)...)
		case "CFin":
			out = append(out, faults.EnumerateCFin(words, width, scope)...)
		case "AF":
			out = append(out, faults.EnumerateAddrFaults(words)...)
		case "Linked":
			out = append(out, faults.EnumerateLinkedCFid(words, width)...)
		case "":
		default:
			return nil, fmt.Errorf("campaign: unknown fault class %q", c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: empty fault list")
	}
	return out, nil
}
