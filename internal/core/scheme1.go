package core

import (
	"fmt"

	"twmarch/internal/databg"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// Scheme1Result carries the artifacts of the prior-art word-oriented
// transparent transformation of Nicolaidis [12] ("Scheme 1" in the
// paper's comparison).
type Scheme1Result struct {
	// Source is the bit-oriented march test transformed.
	Source *march.Test
	// Width is the word width.
	Width int
	// Backgrounds are the log2(W)+1 standard data backgrounds the
	// transparent test iterates over (all-0 first, then the
	// checkerboards).
	Backgrounds []word.Word
	// Parts are the per-background transparent passes, in order.
	Parts []*march.Test
	// Test is the complete transparent word-oriented test: all parts
	// concatenated plus the final restore element.
	Test *march.Test
	// Prediction is the signature-prediction test of Test.
	Prediction *march.Test
}

// TCM returns the transparent test length in operations per address.
func (r *Scheme1Result) TCM() int { return r.Test.Ops() }

// TCP returns the prediction length in operations per address.
func (r *Scheme1Result) TCP() int { return r.Prediction.Ops() }

// Scheme1 transforms a bit-oriented march test into the transparent
// word-oriented march test of [12]: the Section 3 transformation is
// executed on each bit of a word, which amounts to replaying the
// transparent test once per standard data background b_k (Section 3's
// T1', T2', T3' … example). Concretely, with the memory holding a^m
// between parts:
//
//   - part 1 uses the solid backgrounds {0, all-1} and drops its
//     initialization element;
//   - part k ≥ 2 writes data {b_k, ~b_k} XOR-relative to the initial
//     contents; its initialization element cannot be dropped (it
//     switches backgrounds) and receives a prepended read;
//   - after the last part a closing ⇕(r a^m, w a) element (the paper's
//     T4') restores the initial contents.
//
// The per-part tests are retained for inspection; Test is their
// concatenation plus the restore.
func Scheme1(bm *march.Test, width int) (*Scheme1Result, error) {
	if !bm.IsBitOriented() {
		return nil, fmt.Errorf("core: Scheme1 requires a bit-oriented march test, got %q", bm.Name)
	}
	if bm.Reads() == 0 {
		return nil, fmt.Errorf("core: Scheme1: %q has no read operations", bm.Name)
	}
	bgs, err := standardBackgrounds(width)
	if err != nil {
		return nil, err
	}

	res := &Scheme1Result{Source: bm.Clone(), Width: width, Backgrounds: bgs}
	ones := word.Ones(width)
	m := word.Zero // current content a^m across parts

	for bi, bg := range bgs {
		label := fmt.Sprintf("b%d", bi+1)
		part := &march.Test{Name: fmt.Sprintf("T%d'(%s, W=%d)", bi+1, bm.Name, width), Width: width}
		elements := bm.Elements
		if bi == 0 && elements[0].IsWriteOnly() {
			// The first part's initialization is dropped exactly as in
			// the bit-oriented transformation.
			elements = elements[1:]
			if len(elements) == 0 {
				return nil, fmt.Errorf("core: Scheme1: %q consists only of initialization", bm.Name)
			}
		}
		for _, e := range elements {
			ne := march.Element{Order: e.Order}
			if e.Ops[0].Kind == march.Write {
				ne.Ops = append(ne.Ops, march.R(march.Transp(m)))
			}
			for _, op := range e.Ops {
				bit := op.Data.Const.Bit(0)
				v := bg
				lbl := label
				if bit == 1 {
					v = bg.Xor(ones)
					lbl = "~" + label
				}
				d := march.Transp(v)
				if bi > 0 {
					// Solid part data print naturally as a/~a; the
					// background parts carry b_k labels.
					d = d.WithLabel(lbl)
				}
				ne.Ops = append(ne.Ops, march.Op{Kind: op.Kind, Data: d})
				if op.Kind == march.Write {
					m = v
				}
			}
			part.Elements = append(part.Elements, ne)
		}
		if err := part.Validate(); err != nil {
			return nil, err
		}
		res.Parts = append(res.Parts, part)
	}

	full, err := Concat(fmt.Sprintf("TScheme1(%s, W=%d)", bm.Name, width), res.Parts...)
	if err != nil {
		return nil, err
	}
	if !m.IsZero() {
		// T4': restore the initial contents.
		full.Elements = append(full.Elements, march.Elem(march.Any,
			march.R(march.Transp(m)),
			march.W(march.Transp(word.Zero)),
		))
	}
	if err := full.CheckReadConsistency(); err != nil {
		return nil, fmt.Errorf("core: generated Scheme1 test failed self-check: %v", err)
	}
	if fc := full.FinalContent(); !fc.Datum.EffectiveMask(width).IsZero() {
		return nil, fmt.Errorf("core: generated Scheme1 test is not transparent: final content %s", fc.Datum.Format(width))
	}
	res.Test = full
	pred, err := Prediction(full)
	if err != nil {
		return nil, err
	}
	res.Prediction = pred
	return res, nil
}

// standardBackgrounds returns databg.Standard(width) for widths a word
// can hold. databg accepts any power of two, but a background wider
// than word.MaxWidth does not fit in a word.
func standardBackgrounds(width int) ([]word.Word, error) {
	if _, err := databg.Log2(width); err != nil {
		return nil, err
	}
	if width > word.MaxWidth {
		return nil, fmt.Errorf("core: width %d out of range [1,%d]", width, word.MaxWidth)
	}
	return databg.Standard(width)
}

// WordOriented builds the conventional nontransparent word-oriented
// march test of Section 3: the bit-oriented test replayed once per
// standard data background, with 0 mapped to b_k and 1 to ~b_k (the
// T1, T2, T3 … parts of the paper's 4-bit example).
func WordOriented(bm *march.Test, width int) (*march.Test, error) {
	if !bm.IsBitOriented() {
		return nil, fmt.Errorf("core: WordOriented requires a bit-oriented march test, got %q", bm.Name)
	}
	bgs, err := standardBackgrounds(width)
	if err != nil {
		return nil, err
	}
	out := &march.Test{Name: fmt.Sprintf("Word(%s, W=%d)", bm.Name, width), Width: width}
	ones := word.Ones(width)
	for bi, bg := range bgs {
		label := fmt.Sprintf("b%d", bi+1)
		for _, e := range bm.Elements {
			ne := march.Element{Order: e.Order, Ops: make([]march.Op, 0, len(e.Ops))}
			for _, op := range e.Ops {
				v := bg
				lbl := label
				if op.Data.Const.Bit(0) == 1 {
					v = bg.Xor(ones)
					lbl = "~" + label
				}
				ne.Ops = append(ne.Ops, march.Op{Kind: op.Kind, Data: march.Lit(v).WithLabel(lbl)})
			}
			out.Elements = append(out.Elements, ne)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	if err := out.CheckReadConsistency(); err != nil {
		return nil, fmt.Errorf("core: generated word-oriented test failed self-check: %v", err)
	}
	return out, nil
}
