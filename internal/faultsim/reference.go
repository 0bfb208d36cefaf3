package faultsim

import (
	"fmt"
	"sync"

	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/word"
)

// arena is the pooled per-run scratch state a Reference replays faults
// in: a reusable memory (reset with Restore instead of a fresh
// allocate-and-randomize), a snapshot buffer, and — in Signature mode —
// a MISR. Arenas are checked out of their shape's pool for the
// duration of one Detects call, so a Reference is safe for concurrent
// use by the campaign worker pool.
type arena struct {
	mem  *memory.Memory
	snap []word.Word
	reg  *misr.MISR
}

// Reference is the precomputed fault-free context of a campaign
// configuration — the reference-trace fast path for fault simulation.
//
// Detects allocates a fresh memory, re-randomizes it and re-walks the
// whole march for every fault, so the fault-free work dominates an
// exhaustive campaign. A Reference runs that work once: it binds a
// compiled Program (the march and, in Signature mode, the prediction
// test) to fixed initial contents and records the fault-free MISR
// feed stream together with the register state before every clock.
// Each fault is then evaluated against the shared reference on a
// pooled arena:
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
// The replay performs the same access sequence against the injected
// memory as the naive path — including the initial-snapshot reads both
// march.Run passes issue — so faults with read side effects (dynamic
// faults) and address-decoder faults see bit-identical stimuli, and
// the verdicts match Detects exactly. The equivalence suite in
// reference_test.go asserts this over the full fault catalog.
//
// All exported state is read-only after construction; the arena pools
// make concurrent Detects calls safe.
type Reference struct {
	prog    *Program
	words   int
	width   int
	mode    DetectMode
	initial []word.Word

	// Signature mode, per pass: the fault-free feed stream plus the
	// MISR state after each clock (states[k] is the register after k
	// feeds; states[len(feeds)] is the pass's fault-free signature).
	predFeeds  []word.Word
	predStates []word.Word
	testFeeds  []word.Word
	testStates []word.Word

	// pools holds the arenas of the reference's shape, shared with
	// every other reference of that shape (see poolsFor).
	pools *arenaPools
}

// arenaShape is everything a pooled arena's buffers depend on: the
// memory geometry and, for the MISR state, the detection mode. An
// arena carries nothing of the reference it last served into the next
// checkout — Memory.Restore and laneArena.reset rebuild the contents,
// fault masks, hooks and verdicts — so the references of one shape,
// whatever their program or seed, share one pool pair.
type arenaShape struct {
	words, width int
	mode         DetectMode
}

// arenaPools holds the scalar and lane arenas of one shape. Its New
// functions capture only the shape, never a reference.
type arenaPools struct {
	scalar, lane sync.Pool
}

func newArenaPools(s arenaShape) *arenaPools {
	p := &arenaPools{}
	p.scalar.New = func() any {
		a := &arena{
			mem:  memory.MustNew(s.words, s.width),
			snap: make([]word.Word, s.words),
		}
		if s.mode == Signature {
			a.reg = misr.MustNew(s.width)
		}
		return a
	}
	p.lane.New = func() any { return newLaneArena(s.words, s.width, s.mode) }
	return p
}

// maxArenaShapes bounds the process-wide pool table, so a sweep over
// many memory sizes cannot grow it without limit. Campaign grids bind
// a few dozen shapes; a reference whose shape finds the table full
// gets pools of its own, which live and die with it.
const maxArenaShapes = 256

// shapePools is the process-wide table of arena pools by shape. Every
// campaign cell binds a fresh Reference; keyed by shape, its arenas
// come warm from the cells before it instead of being built anew.
var shapePools struct {
	mu sync.Mutex
	m  map[arenaShape]*arenaPools
}

// poolsFor returns the shared pools of shape s, entering them in the
// table while it has room.
func poolsFor(s arenaShape) *arenaPools {
	shapePools.mu.Lock()
	defer shapePools.mu.Unlock()
	if p, ok := shapePools.m[s]; ok {
		return p
	}
	p := newArenaPools(s)
	if len(shapePools.m) < maxArenaShapes {
		if shapePools.m == nil {
			shapePools.m = make(map[arenaShape]*arenaPools)
		}
		shapePools.m[s] = p
	}
	return p
}

// NewReference precomputes the fault-free reference for the campaign
// configuration: it compiles the test (Compile) and binds the program
// to the campaign's initial contents. Signature mode requires a
// transparent test (the prediction derivation) and a tabulated MISR
// polynomial for the width, mirroring the per-fault errors of the
// naive path.
func NewReference(c Campaign) (*Reference, error) {
	if c.Test == nil {
		return nil, fmt.Errorf("faultsim: campaign has no test")
	}
	if c.Test.Width != c.Width {
		return nil, fmt.Errorf("faultsim: test width %d != campaign width %d", c.Test.Width, c.Width)
	}
	mem, err := c.newMemory()
	if err != nil {
		return nil, err
	}
	p, err := Compile(c.Test, c.Mode)
	if err != nil {
		return nil, err
	}
	return p.bind(mem)
}

// bind builds the program's Reference over mem's current contents,
// running the Signature-mode fault-free passes on it.
func (p *Program) bind(mem *memory.Memory) (*Reference, error) {
	r := &Reference{
		prog:    p,
		words:   mem.Words(),
		width:   p.width,
		mode:    p.mode,
		initial: mem.Snapshot(),
	}
	if p.mode == Signature {
		var err error
		r.predFeeds, r.predStates, err = r.faultFreePass(mem, p.pred, p.predReads, true)
		if err != nil {
			return nil, err
		}
		r.testFeeds, r.testStates, err = r.faultFreePass(mem, p.test, p.testReads, false)
		if err != nil {
			return nil, err
		}
	}
	r.pools = poolsFor(arenaShape{words: r.words, width: r.width, mode: r.mode})
	return r, nil
}

// faultFreePass executes one pass of the program on the fault-free
// memory and records the MISR feed stream and per-clock register
// states, reads·words feeds in all. mem is restored to the initial
// contents before and after, so the reference never depends on pass
// order.
func (r *Reference) faultFreePass(mem *memory.Memory, elems []progElem, reads int, predict bool) (feeds, states []word.Word, err error) {
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
func (r *Reference) Detects(f faults.Fault) (bool, error) {
	ar := r.pools.scalar.Get().(*arena)
	defer r.pools.scalar.Put(ar)
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
func (r *Reference) snapshot(ar *arena, inj *faults.Injected) []word.Word {
	for i := range ar.snap {
		ar.snap[i] = inj.Read(i)
	}
	return ar.snap
}

// replayDirect runs the comparator-mode replay: every read is checked
// against the datum evaluated on this run's own snapshot, stopping at
// the first divergence exactly like march.Run with StopAtFirstMismatch.
func (r *Reference) replayDirect(ar *arena, inj *faults.Injected) bool {
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
func (r *Reference) replayCompress(ar *arena, inj *faults.Injected, elems []progElem, predict bool, feeds, states []word.Word) word.Word {
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
func (r *Reference) Run(list []faults.Fault) (*Report, error) {
	return runWith(r.Detects, list)
}
