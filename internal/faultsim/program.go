package faultsim

import (
	"fmt"

	"twmarch/internal/core"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/word"
)

// Program is a march test compiled for replay in one detection mode.
// It depends only on the test and the mode, never on the memory size
// or its contents: each march element keeps its operations, with
// every datum resolved into a literal or the XOR distance from the
// initial content and broadcast into lane rows, and the element's
// address walk is applied at replay time. One Program therefore
// serves every memory size and seed of its test — Bind attaches the
// per-memory part — and is safe for concurrent use.
type Program struct {
	width int
	mode  DetectMode
	// test is the compiled test; pred is, in Signature mode, the
	// compiled prediction test (core.Prediction).
	test, pred []progElem
	// polyBits lists the tap positions of the width's MISR polynomial
	// (Signature mode).
	polyBits []int
}

// progElem is one compiled march element.
type progElem struct {
	// down is set for ⇓ elements; ⇑ and ⇕ walk ascending, march.Run's
	// default walk.
	down bool
	ops  []progOp
}

// walk returns the first address and the step of the element's walk
// over n words.
func (e *progElem) walk(n int) (first, step int) {
	if e.down {
		return n - 1, -1
	}
	return 0, 1
}

// progOp is one operation of a compiled element, its datum resolved
// so the per-fault loop evaluates it with at most one XOR.
type progOp struct {
	kind        march.OpKind
	transparent bool
	// val is the literal for nontransparent data, pre-masked to the
	// width.
	val word.Word
	// eff is the effective XOR mask for transparent data: the op's
	// value at address a is snapshot[a] ^ eff.
	eff word.Word
	// rows[b] is bit b of the datum (eff when transparent, val
	// otherwise) broadcast across all 64 lanes.
	rows []uint64
}

// Compile compiles test t for detection mode m. Signature mode also
// compiles the prediction test and requires a transparent test and a
// tabulated MISR polynomial for its width; the errors are those
// NewReference reports for the same test and mode.
func Compile(t *march.Test, m DetectMode) (*Program, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	p := &Program{width: t.Width, mode: m}
	p.test = compileElems(t)
	switch m {
	case DirectCompare:
	case Signature:
		pred, err := core.Prediction(t)
		if err != nil {
			return nil, err
		}
		if err := pred.Validate(); err != nil {
			return nil, err
		}
		p.pred = compileElems(pred)
		poly, err := misr.LookupPoly(t.Width)
		if err != nil {
			return nil, err
		}
		for b := 0; b < t.Width; b++ {
			if poly.Bit(b) == 1 {
				p.polyBits = append(p.polyBits, b)
			}
		}
	default:
		return nil, fmt.Errorf("faultsim: unknown mode %v", m)
	}
	return p, nil
}

// compileElems resolves a validated test's elements. All ops share
// one backing array, and so do all lane rows: a program is read by
// every cell of its key on every core, so it is kept in few,
// contiguous allocations.
func compileElems(t *march.Test) []progElem {
	w := t.Width
	all := make([]progOp, t.Ops())
	rows := make([]uint64, len(all)*w)
	out := make([]progElem, len(t.Elements))
	for ei, e := range t.Elements {
		var ops []progOp
		ops, all = all[:len(e.Ops):len(e.Ops)], all[len(e.Ops):]
		for oi, o := range e.Ops {
			op := progOp{kind: o.Kind, transparent: o.Data.Transparent}
			d := o.Data.Const.Mask(w)
			if op.transparent {
				op.eff = o.Data.EffectiveMask(w)
				d = op.eff
			} else {
				op.val = d
			}
			op.rows, rows = rows[:w:w], rows[w:]
			memory.BroadcastPlanes(op.rows, []word.Word{d}, w)
			ops[oi] = op
		}
		out[ei] = progElem{down: e.Order == march.Down, ops: ops}
	}
	return out
}

// Bind returns the Reference of the program on a words-word memory
// whose initial contents are drawn from seed — the Reference
// NewReference builds for the campaign {test, words, width, mode,
// seed}, without compiling the test again.
func (p *Program) Bind(words int, seed int64) (*Reference, error) {
	mem, err := Campaign{Words: words, Width: p.width, Seed: seed}.newMemory()
	if err != nil {
		return nil, err
	}
	return p.bind(mem), nil
}
