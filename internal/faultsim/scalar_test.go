package faultsim

// The scalar replay tier: one fault per replay against a bound
// Reference. Production evaluates faults on the naive path or the
// lanes; this tier sits between the two in the oracle tower (naive →
// scalar → lanes), so every equivalence test compares each lane
// verdict with a replay simple enough to read against march.Run.

import (
	"fmt"
	"sync"

	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/word"
)

// arena is the pooled per-run scratch state a scalarRef replays faults
// in: a reusable memory (reset with Restore instead of a fresh
// allocate-and-randomize), a snapshot buffer, and — in Signature mode —
// a MISR. Arenas are checked out of the scalarRef's pool for the
// duration of one Detects call, so a scalarRef is safe for concurrent
// use.
type arena struct {
	mem  *memory.Memory
	snap []word.Word
	reg  *misr.MISR
}

// scalarRef is the scalar replay oracle of a Reference. It records, in
// Signature mode, the fault-free MISR feed stream together with the
// register state before every clock. Each fault is then evaluated
// against the shared reference on a pooled arena:
//
//   - DirectCompare replays the program and exits at the first read
//     that diverges from its expected value — exactly the verdict of
//     march.Run with StopAtFirstMismatch.
//   - Signature replays both passes but engages the MISR only from the
//     first feed that diverges from the fault-free stream, resuming
//     compression from the recorded prefix state; the fault-free
//     prefix costs one word compare per read instead of a register
//     step.
//
// The embedded Reference keeps its lane path (DetectLane, RunLanes),
// so a scalarRef answers both sides of a lane-vs-scalar comparison.
type scalarRef struct {
	*Reference

	// testReads and predReads count the read operations per address
	// of each pass: the fault-free feed stream of a pass over n words
	// has reads·n entries.
	testReads, predReads int

	// Signature mode, per pass: the fault-free feed stream plus the
	// MISR state after each clock (states[k] is the register after k
	// feeds; states[len(feeds)] is the pass's fault-free signature).
	predFeeds  []word.Word
	predStates []word.Word
	testFeeds  []word.Word
	testStates []word.Word

	arenas sync.Pool
}

// newScalarRef builds the campaign's Reference (NewReference) and its
// scalar oracle.
func newScalarRef(c Campaign) (*scalarRef, error) {
	ref, err := NewReference(c)
	if err != nil {
		return nil, err
	}
	return scalarOf(ref)
}

// scalarOf binds the scalar oracle to r, running the Signature-mode
// fault-free passes on r's initial contents.
func scalarOf(ref *Reference) (*scalarRef, error) {
	r := &scalarRef{
		Reference: ref,
		testReads: readsPerAddr(ref.prog.test),
		predReads: readsPerAddr(ref.prog.pred),
	}
	r.arenas.New = func() any {
		a := &arena{
			mem:  memory.MustNew(r.words, r.width),
			snap: make([]word.Word, r.words),
		}
		if r.mode == Signature {
			a.reg = misr.MustNew(r.width)
		}
		return a
	}
	if r.mode == Signature {
		mem := memory.MustNew(r.words, r.width)
		var err error
		r.predFeeds, r.predStates, err = r.faultFreePass(mem, r.prog.pred, r.predReads, true)
		if err != nil {
			return nil, err
		}
		r.testFeeds, r.testStates, err = r.faultFreePass(mem, r.prog.test, r.testReads, false)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// readsPerAddr counts the read operations per address of a compiled
// pass.
func readsPerAddr(elems []progElem) int {
	reads := 0
	for _, e := range elems {
		for _, op := range e.ops {
			if op.kind == march.Read {
				reads++
			}
		}
	}
	return reads
}

// faultFreePass executes one pass of the program on the fault-free
// memory and records the MISR feed stream and per-clock register
// states, reads·words feeds in all. mem is restored to the initial
// contents before and after, so the reference never depends on pass
// order.
func (r *scalarRef) faultFreePass(mem *memory.Memory, elems []progElem, reads int, predict bool) (feeds, states []word.Word, err error) {
	if err := mem.Restore(r.initial); err != nil {
		return nil, nil, err
	}
	reg, err := misr.New(r.width)
	if err != nil {
		return nil, nil, err
	}
	reg.Reset(word.Zero)
	n := r.words
	feeds = make([]word.Word, 0, reads*n)
	states = make([]word.Word, 1, reads*n+1)
	states[0] = reg.Signature()
	for ei := range elems {
		e := &elems[ei]
		ops := e.ops
		addr, step := e.walk(n)
		for k := 0; k < n; k, addr = k+1, addr+step {
			for oi := range ops {
				op := &ops[oi]
				val := op.val
				if op.transparent {
					val = r.initial[addr].Xor(op.eff)
				}
				if op.kind == march.Write {
					mem.Write(addr, val)
					continue
				}
				feed := mem.Read(addr)
				if predict {
					feed = feed.Xor(op.eff)
				}
				reg.Feed(feed)
				feeds = append(feeds, feed)
				states = append(states, reg.Signature())
			}
		}
	}
	if err := mem.Restore(r.initial); err != nil {
		return nil, nil, err
	}
	return feeds, states, nil
}

// Detects evaluates one fault against the reference and reports
// whether the campaign's test caught it. The verdict is bit-identical
// to Detects on the equivalent Campaign; only the cost differs. Safe
// for concurrent use.
func (r *scalarRef) Detects(f faults.Fault) (bool, error) {
	ar := r.arenas.Get().(*arena)
	defer r.arenas.Put(ar)
	if err := ar.mem.Restore(r.initial); err != nil {
		return false, err
	}
	inj, err := faults.Inject(ar.mem, f)
	if err != nil {
		return false, err
	}
	switch r.mode {
	case DirectCompare:
		return r.replayDirect(ar, inj), nil
	case Signature:
		predicted := r.replayCompress(ar, inj, r.prog.pred, true, r.predFeeds, r.predStates)
		testSig := r.replayCompress(ar, inj, r.prog.test, false, r.testFeeds, r.testStates)
		return predicted != testSig, nil
	default:
		return false, fmt.Errorf("faultsim: unknown mode %v", r.mode)
	}
}

// snapshot replicates the initial-snapshot read sweep march.Run issues
// before a pass. The reads go through the injected wrapper because
// fault models may perturb them (decoder redirection, read disturbs) —
// the fast path must present the same stimulus sequence as the runner.
func (r *scalarRef) snapshot(ar *arena, inj *faults.Injected) []word.Word {
	for i := range ar.snap {
		ar.snap[i] = inj.Read(i)
	}
	return ar.snap
}

// replayDirect runs the comparator-mode replay: every read is checked
// against the datum evaluated on this run's own snapshot, stopping at
// the first divergence exactly like march.Run with StopAtFirstMismatch.
func (r *scalarRef) replayDirect(ar *arena, inj *faults.Injected) bool {
	snap := r.snapshot(ar, inj)
	n := r.words
	for ei := range r.prog.test {
		e := &r.prog.test[ei]
		ops := e.ops
		addr, step := e.walk(n)
		for k := 0; k < n; k, addr = k+1, addr+step {
			for oi := range ops {
				op := &ops[oi]
				val := op.val
				if op.transparent {
					val = snap[addr].Xor(op.eff)
				}
				if op.kind == march.Write {
					inj.Write(addr, val)
					continue
				}
				if inj.Read(addr) != val {
					return true
				}
			}
		}
	}
	return false
}

// replayCompress runs one signature-mode pass over the injected
// memory and returns its MISR signature. While the feed stream matches
// the fault-free reference the register is not clocked at all — the
// fault-free state is tabulated — and compression resumes from the
// recorded prefix state at the first divergence.
func (r *scalarRef) replayCompress(ar *arena, inj *faults.Injected, elems []progElem, predict bool, feeds, states []word.Word) word.Word {
	snap := r.snapshot(ar, inj)
	reg := ar.reg
	clock := 0
	diverged := false
	n := r.words
	for ei := range elems {
		e := &elems[ei]
		ops := e.ops
		addr, step := e.walk(n)
		for k := 0; k < n; k, addr = k+1, addr+step {
			for oi := range ops {
				op := &ops[oi]
				if op.kind == march.Write {
					val := op.val
					if op.transparent {
						val = snap[addr].Xor(op.eff)
					}
					inj.Write(addr, val)
					continue
				}
				feed := inj.Read(addr)
				if predict {
					feed = feed.Xor(op.eff)
				}
				if !diverged {
					if feed == feeds[clock] {
						clock++
						continue
					}
					reg.Reset(states[clock])
					diverged = true
				}
				reg.Feed(feed)
				clock++
			}
		}
	}
	if !diverged {
		return states[clock]
	}
	return reg.Signature()
}

// Run executes the reference over a fault list, producing the same
// Report as Run on the equivalent Campaign.
func (r *scalarRef) Run(list []faults.Fault) (*Report, error) {
	return runWith(r.Detects, list)
}
