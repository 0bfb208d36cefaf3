package faultsim

import (
	"fmt"
	"sync"

	"twmarch/internal/core"
	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/misr"
	"twmarch/internal/word"
)

// refOp is one step of a precompiled replay schedule: a flattened
// march operation with its datum resolved into either a literal value
// or the XOR distance from the initial content, so the per-fault loop
// evaluates each datum with at most one XOR instead of re-walking the
// march elements.
type refOp struct {
	kind        march.OpKind
	addr        int
	transparent bool
	// val is the literal for nontransparent data, pre-masked to the
	// memory width.
	val word.Word
	// eff is the effective XOR mask for transparent data: the op's
	// value is snapshot[addr] ^ eff.
	eff word.Word
}

// compileSchedule flattens a test into refOps under the runner's
// default options (the options every campaign path uses).
func compileSchedule(t *march.Test, words, width int) ([]refOp, error) {
	flat, err := march.Flatten(t, words, march.RunOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]refOp, len(flat))
	for i, f := range flat {
		op := refOp{kind: f.Kind, addr: f.Addr, transparent: f.Data.Transparent}
		if f.Data.Transparent {
			op.eff = f.Data.EffectiveMask(width)
		} else {
			op.val = f.Data.Const.Mask(width)
		}
		out[i] = op
	}
	return out, nil
}

// arena is the pooled per-run scratch state a Reference replays faults
// in: a reusable memory (reset with Restore instead of a fresh
// allocate-and-randomize), a snapshot buffer, and — in Signature mode —
// a MISR. Arenas are checked out of the Reference's pool for the
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
// exhaustive campaign. A Reference runs that work once: it fixes the
// initial contents, compiles the march (and, in Signature mode, the
// prediction test) into a flat replay schedule, and records the
// fault-free MISR feed stream together with the register state before
// every clock. Each fault is then evaluated against the shared
// reference on a pooled arena:
//
//   - DirectCompare replays the schedule and exits at the first read
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
// All exported state is read-only after NewReference; the arena pool
// makes concurrent Detects calls safe.
type Reference struct {
	words   int
	width   int
	mode    DetectMode
	initial []word.Word
	sched   []refOp

	// Signature mode: the prediction schedule and, per pass, the
	// fault-free feed stream plus the MISR state after each clock
	// (states[k] is the register after k feeds; states[len(feeds)] is
	// the pass's fault-free signature).
	predSched  []refOp
	predFeeds  []word.Word
	predStates []word.Word
	testFeeds  []word.Word
	testStates []word.Word

	// Bit-parallel lane path (lane.go): the schedules lowered into
	// broadcast rows, the MISR polynomial's tap positions (Signature
	// mode), and the pooled lane arenas.
	laneSched     []laneOp
	lanePredSched []laneOp
	polyBits      []int

	// pools lives apart from the Reference, and its New functions
	// capture only the arena shape: the runtime keeps every pool used
	// since the last collection reachable through the next one, and
	// an embedded pool would pin the whole reference (its schedules
	// and feed streams) along with it.
	pools *arenaPools
}

// arenaPools holds a Reference's scalar and lane arenas.
type arenaPools struct {
	scalar, lane sync.Pool
}

// NewReference precomputes the fault-free reference for the campaign
// configuration. Signature mode requires a transparent test (the
// prediction derivation) and a tabulated MISR polynomial for the
// width, mirroring the per-fault errors of the naive path.
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
	r := &Reference{
		words:   c.Words,
		width:   c.Width,
		mode:    c.Mode,
		initial: mem.Snapshot(),
	}
	r.sched, err = compileSchedule(c.Test, c.Words, c.Width)
	if err != nil {
		return nil, err
	}
	switch c.Mode {
	case DirectCompare:
	case Signature:
		pred, err := core.Prediction(c.Test)
		if err != nil {
			return nil, err
		}
		r.predSched, err = compileSchedule(pred, c.Words, c.Width)
		if err != nil {
			return nil, err
		}
		r.predFeeds, r.predStates, err = r.faultFreePass(mem, r.predSched, true)
		if err != nil {
			return nil, err
		}
		r.testFeeds, r.testStates, err = r.faultFreePass(mem, r.sched, false)
		if err != nil {
			return nil, err
		}
		poly, err := misr.LookupPoly(c.Width)
		if err != nil {
			return nil, err
		}
		for b := 0; b < c.Width; b++ {
			if poly.Bit(b) == 1 {
				r.polyBits = append(r.polyBits, b)
			}
		}
		r.lanePredSched = compileLaneOps(r.predSched, c.Width)
	default:
		return nil, fmt.Errorf("faultsim: unknown mode %v", c.Mode)
	}
	r.laneSched = compileLaneOps(r.sched, c.Width)
	words, width, mode := r.words, r.width, r.mode
	r.pools = &arenaPools{}
	r.pools.scalar.New = func() any {
		a := &arena{
			mem:  memory.MustNew(words, width),
			snap: make([]word.Word, words),
		}
		if mode == Signature {
			a.reg = misr.MustNew(width)
		}
		return a
	}
	r.pools.lane.New = func() any { return newLaneArena(words, width, mode) }
	return r, nil
}

// faultFreePass executes one pass of the schedule on the fault-free
// memory and records the MISR feed stream and per-clock register
// states. mem is restored to the initial contents before and after, so
// the reference never depends on pass order.
func (r *Reference) faultFreePass(mem *memory.Memory, sched []refOp, predict bool) (feeds, states []word.Word, err error) {
	if err := mem.Restore(r.initial); err != nil {
		return nil, nil, err
	}
	reg, err := misr.New(r.width)
	if err != nil {
		return nil, nil, err
	}
	reg.Reset(word.Zero)
	states = append(states, reg.Signature())
	for _, op := range sched {
		val := op.val
		if op.transparent {
			val = r.initial[op.addr].Xor(op.eff)
		}
		if op.kind == march.Write {
			mem.Write(op.addr, val)
			continue
		}
		feed := mem.Read(op.addr)
		if predict {
			feed = feed.Xor(op.eff)
		}
		reg.Feed(feed)
		feeds = append(feeds, feed)
		states = append(states, reg.Signature())
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
		predicted := r.replayCompress(ar, inj, r.predSched, true, r.predFeeds, r.predStates)
		testSig := r.replayCompress(ar, inj, r.sched, false, r.testFeeds, r.testStates)
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
	for _, op := range r.sched {
		val := op.val
		if op.transparent {
			val = snap[op.addr].Xor(op.eff)
		}
		if op.kind == march.Write {
			inj.Write(op.addr, val)
			continue
		}
		if inj.Read(op.addr) != val {
			return true
		}
	}
	return false
}

// replayCompress runs one signature-mode pass over the injected
// memory and returns its MISR signature. While the feed stream matches
// the fault-free reference the register is not clocked at all — the
// fault-free state is tabulated — and compression resumes from the
// recorded prefix state at the first divergence.
func (r *Reference) replayCompress(ar *arena, inj *faults.Injected, sched []refOp, predict bool, feeds, states []word.Word) word.Word {
	snap := r.snapshot(ar, inj)
	reg := ar.reg
	clock := 0
	diverged := false
	for _, op := range sched {
		if op.kind == march.Write {
			val := op.val
			if op.transparent {
				val = snap[op.addr].Xor(op.eff)
			}
			inj.Write(op.addr, val)
			continue
		}
		feed := inj.Read(op.addr)
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
