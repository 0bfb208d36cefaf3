package faultsim

// Bit-parallel lane replay: the batch fault-simulation path.
//
// A lane packs up to LaneWidth faulty machines into uint64 bit-planes
// (see internal/memory's plane helpers): bit L of plane (addr, b) is
// the value of memory bit (addr, b) in lane machine L. One replay of
// the compiled program then advances all 64 machines at once — march
// writes become a handful of bitwise plane transforms, fault
// activation becomes per-plane masks or per-address hooks, and
// detection folds whole lanes (XOR against the expected row in
// DirectCompare, 64 parallel MISR states compressed plane-wise in
// Signature mode).
//
// The dominant fault classes are pure mask algebra, applied to every
// lane in one expression per plane:
//
//	st := (v | stuck1) &^ stuck0       // stuck-at forcing
//	st &^= failRise &^ old & v         // failed 0→1 transitions
//	st |= failFall & old &^ v          // failed 1→0 transitions
//
// Everything else (coupling, linked, decoder, read-disturb,
// pattern-sensitive faults) registers per-address hooks that fix up
// single lanes after the bulk commit; the hook bodies replicate the
// scalar semantics of internal/faults exactly, including effect order
// within one write. Lane verdicts are asserted bit-identical to the
// scalar replay oracle of the tests (and through it to the naive
// Detects) by the equivalence suite and FuzzDetectLaneVsDetects.

import (
	"fmt"
	"math/bits"

	"twmarch/internal/faults"
	"twmarch/internal/march"
	"twmarch/internal/memory"
	"twmarch/internal/word"
)

// LaneWidth is the number of faulty machines one lane replay evaluates
// in parallel — the lane capacity of DetectLane and the chunk size of
// RunLanes.
const LaneWidth = 64

// hookKind tags the per-address fix-up hooks a lane replay runs after
// bulk-committing a write (write hooks) or loading a read row (read
// hooks).
type hookKind uint8

const (
	// hookCFst enforces state coupling: whenever the committed
	// aggressor bit sits in the trigger state, the victim bit is
	// forced. Registered at both the aggressor's and the victim's
	// address; enforcement after writes elsewhere is a provable no-op.
	hookCFst hookKind = iota
	// hookCFid forces the victim bit when the aggressor bit underwent
	// the trigger transition in this write. Registered at the
	// aggressor's address only (same-word and cross-word cases both
	// reduce to a post-commit fix-up there).
	hookCFid
	// hookCFin flips the victim bit when the aggressor bit underwent
	// the trigger transition.
	hookCFin
	// hookChain replays a Linked fault's component chain with exact
	// scalar ordering (A's onWrite, B's onWrite, commit, A's side
	// effects, B's side effects).
	hookChain
	// hookAliasWrite copies the written row to the alias target (the
	// redirect mask already preserved the From word's own storage).
	hookAliasWrite
	// hookShadowWrite copies the committed From row to the shadow
	// target (multi-select decoder fault).
	hookShadowWrite
	// hookNPSF enforces a neighborhood pattern-sensitive fault after a
	// write to the victim or any valid neighbor.
	hookNPSF
	// hookAliasRead overrides the read row with the alias target's row.
	hookAliasRead
	// hookShadowRead overrides the read row with the wired-AND of the
	// From and To rows.
	hookShadowRead
	// hookReadDisturb implements RDF/DRDF: a read of the sensitive
	// polarity flips the stored bit, and (unless deceptive) the
	// returned row too.
	hookReadDisturb
)

// laneHook is one registered fix-up. Only the fields its kind uses are
// populated; lane is always the single machine bit the hook acts on.
// The struct is deliberately small (48 bytes): packing copies one hook
// per registered address for every fault of every chunk, so hook size
// is directly on the DetectLane hot path. Bulky payloads (Linked
// chains, NPSF neighborhoods) live in arena side tables reached
// through dataIdx.
type laneHook struct {
	lane   uint64 // single machine bit the hook acts on
	forced uint64 // lane bit pre-multiplied by the forced victim value

	// Coupling hooks.
	aggrIdx   int32 // plane index of the aggressor bit (hookCFst)
	aggrBit   int32 // aggressor bit within the written word (transition hooks)
	victimIdx int32 // plane index of the victim bit

	// Decoder faults.
	from, to int32

	// Index into the arena side table the kind uses: chains for
	// hookChain, npsf for hookNPSF.
	dataIdx int32

	// Read disturb.
	cellBit int32

	kind hookKind
	rise bool // trigger: state 1 (hookCFst) or rising transition

	// Read disturb.
	trigVal1  bool
	deceptive bool
}

// npsfSpec is the neighborhood payload of a hookNPSF, held in a side
// table so the hot hook struct stays small: the N,S,W,E neighbor
// addresses (-1 off-grid) and the sensitizing pattern.
type npsfSpec struct {
	neigh   [4]int32
	pattern [4]int32
}

// laneArena is the pooled scratch state one DetectLane call replays in:
// the bit-planes of all 64 machines, the bulk fault masks, the
// per-address hook lists, and — in Signature mode — the plane-wise MISR
// states of both passes.
type laneArena struct {
	planes []uint64 // words*width bit-planes, index addr*width+b
	snap   []uint64 // per-run snapshot in the same layout

	// Bulk per-plane fault masks (bit L set = lane L carries that
	// fault at this bit cell).
	stuck0, stuck1     []uint64
	failRise, failFall []uint64

	// redirect[addr] holds the lanes whose writes to addr are decoder-
	// redirected: the bulk commit preserves the old row for them.
	redirect []uint64

	// masked[addr] records whether any stuck-at or transition mask is
	// set on a plane of addr, letting write skip the mask algebra on
	// clean addresses (most addresses of a coupling-dominated chunk).
	masked []bool

	writeHooks [][]laneHook
	readHooks  [][]laneHook

	// writeLanes[addr] and readLanes[addr] are the unions of the lane
	// bits of the hooks registered at addr. ANDed against live, they
	// skip a whole hook loop once every lane it serves has detected,
	// and gate hook dispatch without touching the slice headers.
	// nReadHooks counts read hooks across all addresses: when zero the
	// snapshot sweep degenerates to one bulk copy.
	writeLanes []uint64
	readLanes  []uint64
	nReadHooks int

	// Side tables for the bulky hook payloads (laneHook.dataIdx).
	chains [][2]faults.Coupling
	npsf   []npsfSpec

	// Signature mode: the two plane-wise MISR signatures.
	misr, sigA []uint64

	// scratch backs the faults.Inject call on the error path, so
	// DetectLane reports the naive path's error messages without
	// paying Inject per fault.
	scratch *memory.Memory

	active   uint64
	detected uint64
	// live gates hook execution: hooks whose lane bit is clear are
	// skipped. DirectCompare narrows it to the still-undetected lanes
	// (a detected lane's later evolution cannot change its sticky
	// verdict); Signature keeps every lane live, since signatures
	// depend on the full replay.
	live uint64

	valRow, oldRow, rawRow [word.MaxWidth]uint64
}

func newLaneArena(words, width int, mode DetectMode) *laneArena {
	n := words * width
	// One backing array for the six plane-shaped buffers plus the
	// three per-word masks: arenas are built per pool miss, so the
	// allocation count matters more than locality here.
	back := make([]uint64, 6*n+3*words)
	ar := &laneArena{
		planes:     back[0*n : 1*n : 1*n],
		snap:       back[1*n : 2*n : 2*n],
		stuck0:     back[2*n : 3*n : 3*n],
		stuck1:     back[3*n : 4*n : 4*n],
		failRise:   back[4*n : 5*n : 5*n],
		failFall:   back[5*n : 6*n : 6*n],
		redirect:   back[6*n : 6*n+words : 6*n+words],
		writeLanes: back[6*n+words : 6*n+2*words : 6*n+2*words],
		readLanes:  back[6*n+2*words:],
		masked:     make([]bool, words),
		writeHooks: make([][]laneHook, words),
		readHooks:  make([][]laneHook, words),
		scratch:    memory.MustNew(words, width),
	}
	if mode == Signature {
		ar.misr = make([]uint64, width)
		ar.sigA = make([]uint64, width)
	}
	return ar
}

// reset restores the arena to the fault-free broadcast of the
// campaign's initial contents with no faults packed.
func (ar *laneArena) reset(r *Reference) {
	memory.BroadcastPlanes(ar.planes, r.initial, r.width)
	clear(ar.stuck0)
	clear(ar.stuck1)
	clear(ar.failRise)
	clear(ar.failFall)
	clear(ar.redirect)
	clear(ar.masked)
	clear(ar.writeLanes)
	clear(ar.readLanes)
	ar.nReadHooks = 0
	for i := range ar.writeHooks {
		ar.writeHooks[i] = ar.writeHooks[i][:0]
	}
	for i := range ar.readHooks {
		ar.readHooks[i] = ar.readHooks[i][:0]
	}
	ar.chains = ar.chains[:0]
	ar.npsf = ar.npsf[:0]
	ar.active, ar.detected = 0, 0
	ar.live = ^uint64(0)
}

// addWrite and addRead register hooks, seeding a fresh address's list
// with a capacity that skips append's 1→2→4→… growth reallocations
// (hook lists are rebuilt for every chunk; pooled arenas keep the
// capacity across chunks).
func (ar *laneArena) addWrite(addr int, h laneHook) {
	s := ar.writeHooks[addr]
	if cap(s) == 0 {
		s = make([]laneHook, 0, 16)
	}
	ar.writeHooks[addr] = append(s, h)
	ar.writeLanes[addr] |= h.lane
}

func (ar *laneArena) addRead(addr int, h laneHook) {
	s := ar.readHooks[addr]
	if cap(s) == 0 {
		s = make([]laneHook, 0, 8)
	}
	ar.readHooks[addr] = append(s, h)
	ar.readLanes[addr] |= h.lane
	ar.nReadHooks++
}

func (r *Reference) siteOK(s faults.Site) bool {
	return s.Addr >= 0 && s.Addr < r.words && s.Bit >= 0 && s.Bit < r.width
}

func (r *Reference) addrOK(a int) bool { return a >= 0 && a < r.words }

// pack validates one fault (the same constraints faults.Inject
// enforces, without its allocations), registers it on lane machine
// `lane` (a single bit mask) and applies its injection-time initial
// condition to the planes. It reports false, registering nothing, for
// a fault faults.Inject rejects.
func (ar *laneArena) pack(r *Reference, f faults.Fault, lane uint64) bool {
	w := r.width
	switch t := f.(type) {
	case faults.StuckAt:
		if !r.siteOK(t.Cell) {
			return false
		}
		idx := t.Cell.Addr*w + t.Cell.Bit
		ar.masked[t.Cell.Addr] = true
		if t.Value == 1 {
			ar.stuck1[idx] |= lane
			ar.planes[idx] |= lane
		} else {
			ar.stuck0[idx] |= lane
			ar.planes[idx] &^= lane
		}
	case faults.Transition:
		if !r.siteOK(t.Cell) {
			return false
		}
		idx := t.Cell.Addr*w + t.Cell.Bit
		ar.masked[t.Cell.Addr] = true
		if t.Rise {
			ar.failRise[idx] |= lane
		} else {
			ar.failFall[idx] |= lane
		}
	case faults.Coupling:
		if !r.siteOK(t.Aggressor) || !r.siteOK(t.Victim) || t.Aggressor == t.Victim {
			return false
		}
		ar.packCoupling(&t, lane, w)
	case faults.Linked:
		if !r.siteOK(t.A.Aggressor) || !r.siteOK(t.A.Victim) ||
			!r.siteOK(t.B.Aggressor) || !r.siteOK(t.B.Victim) {
			return false
		}
		ar.chains = append(ar.chains, [2]faults.Coupling{t.A, t.B})
		h := laneHook{kind: hookChain, lane: lane, dataIdx: int32(len(ar.chains) - 1)}
		for _, a := range chainAddrs(t) {
			ar.addWrite(a, h)
		}
		ar.initCoupling(&t.A, lane, w)
		ar.initCoupling(&t.B, lane, w)
	case faults.AddrAlias:
		if !r.addrOK(t.From) || !r.addrOK(t.To) || t.From == t.To {
			return false
		}
		ar.redirect[t.From] |= lane
		ar.addWrite(t.From, laneHook{kind: hookAliasWrite, lane: lane, from: int32(t.From), to: int32(t.To)})
		ar.addRead(t.From, laneHook{kind: hookAliasRead, lane: lane, from: int32(t.From), to: int32(t.To)})
	case faults.AddrShadow:
		if !r.addrOK(t.From) || !r.addrOK(t.To) || t.From == t.To {
			return false
		}
		ar.addWrite(t.From, laneHook{kind: hookShadowWrite, lane: lane, from: int32(t.From), to: int32(t.To)})
		ar.addRead(t.From, laneHook{kind: hookShadowRead, lane: lane, from: int32(t.From), to: int32(t.To)})
	case faults.ReadDestructive:
		if !r.siteOK(t.Cell) {
			return false
		}
		ar.addRead(t.Cell.Addr, laneHook{
			kind: hookReadDisturb, lane: lane,
			cellBit: int32(t.Cell.Bit), trigVal1: t.Value == 1, deceptive: t.Deceptive,
		})
	case faults.NPSF:
		if t.Rows < 1 || t.Cols < 1 || !r.addrOK(t.Victim) || !r.addrOK(t.Rows*t.Cols-1) {
			return false
		}
		spec := npsfSpec{neigh: npsfNeighbors(t)}
		for i, p := range t.Pattern {
			spec.pattern[i] = int32(p)
		}
		ar.npsf = append(ar.npsf, spec)
		h := laneHook{
			kind: hookNPSF, lane: lane,
			victimIdx: int32(t.Victim * w),
			forced:    lane * uint64(t.Value),
			dataIdx:   int32(len(ar.npsf) - 1),
		}
		ar.addWrite(t.Victim, h)
		for _, n := range spec.neigh {
			if n >= 0 {
				ar.addWrite(int(n), h)
			}
		}
		ar.enforceNPSF(&h, w)
	default:
		// Only a pointer to one of the fault types gets here (the cases
		// above take every value type faults.Value returns): it packs
		// as its value.
		v, ok := faults.Value(f)
		return ok && ar.pack(r, v, lane)
	}
	return true
}

// packCoupling registers a plain coupling fault. Each model reduces to
// one post-commit hook: CFst is a standing enforcement at both involved
// addresses (the same-word onWrite override and the after-write
// enforcement coincide), CFid/CFin fire on the committed aggressor
// transition at the aggressor's address (for the same-word case the
// committed row already equals the written value, so fixing up the
// victim bit afterwards is the scalar onWrite result).
func (ar *laneArena) packCoupling(c *faults.Coupling, lane uint64, w int) {
	switch c.Model {
	case faults.CFst:
		h := laneHook{
			kind: hookCFst, lane: lane,
			aggrIdx:   int32(c.Aggressor.Addr*w + c.Aggressor.Bit),
			victimIdx: int32(c.Victim.Addr*w + c.Victim.Bit),
			rise:      c.AggrTrigger == 1,
			forced:    lane * uint64(c.VictimValue),
		}
		ar.addWrite(c.Aggressor.Addr, h)
		if c.Victim.Addr != c.Aggressor.Addr {
			ar.addWrite(c.Victim.Addr, h)
		}
		ar.enforceCFst(&h)
	case faults.CFid:
		ar.addWrite(c.Aggressor.Addr, laneHook{
			kind: hookCFid, lane: lane,
			aggrBit:   int32(c.Aggressor.Bit),
			victimIdx: int32(c.Victim.Addr*w + c.Victim.Bit),
			rise:      c.AggrTrigger == 1,
			forced:    lane * uint64(c.VictimValue),
		})
	case faults.CFin:
		ar.addWrite(c.Aggressor.Addr, laneHook{
			kind: hookCFin, lane: lane,
			aggrBit:   int32(c.Aggressor.Bit),
			victimIdx: int32(c.Victim.Addr*w + c.Victim.Bit),
			rise:      c.AggrTrigger == 1,
		})
	}
}

// initCoupling applies a coupling component's injection-time initial
// condition (CFst standing enforcement) to lane machine `lane`.
func (ar *laneArena) initCoupling(c *faults.Coupling, lane uint64, w int) {
	if c.Model != faults.CFst {
		return
	}
	ai := c.Aggressor.Addr*w + c.Aggressor.Bit
	vi := c.Victim.Addr*w + c.Victim.Bit
	if (ar.planes[ai]&lane != 0) == (c.AggrTrigger == 1) {
		ar.planes[vi] = ar.planes[vi]&^lane | lane*uint64(c.VictimValue)
	}
}

// chainAddrs collects the unique addresses a Linked fault's hook must
// fire at: each CFst component needs its aggressor and victim words,
// transition-triggered components only their aggressor word.
func chainAddrs(t faults.Linked) []int {
	var addrs [4]int
	n := 0
	add := func(a int) {
		for i := 0; i < n; i++ {
			if addrs[i] == a {
				return
			}
		}
		addrs[n] = a
		n++
	}
	for _, c := range [2]faults.Coupling{t.A, t.B} {
		add(c.Aggressor.Addr)
		if c.Model == faults.CFst {
			add(c.Victim.Addr)
		}
	}
	return addrs[:n]
}

// npsfNeighbors mirrors the scalar NPSF neighborhood: the N,S,W,E
// addresses of the victim on the Rows×Cols grid, -1 where the victim
// sits on an edge (edge neighbors read as 0).
func npsfNeighbors(f faults.NPSF) [4]int32 {
	row, col := f.Victim/f.Cols, f.Victim%f.Cols
	out := [4]int32{-1, -1, -1, -1}
	if row > 0 {
		out[0] = int32(f.Victim - f.Cols)
	}
	if row < f.Rows-1 {
		out[1] = int32(f.Victim + f.Cols)
	}
	if col > 0 {
		out[2] = int32(f.Victim - 1)
	}
	if col < f.Cols-1 {
		out[3] = int32(f.Victim + 1)
	}
	return out
}

// write bulk-commits valRow[0:width] to the word at addr across all
// lanes — stuck-at and transition masks applied in-line, decoder-
// redirected lanes keeping their old row — then runs the address's
// write hooks. oldRow is left holding the pre-write row for the hooks.
func (ar *laneArena) write(width, addr, base int) {
	hooked := ar.writeLanes[addr]&ar.live != 0
	red := ar.redirect[addr]
	if !ar.masked[addr] && red == 0 {
		// No stuck-at/transition mask and no redirect on this address:
		// the commit is a plain store. oldRow is only read by write
		// hooks, so it is skipped when none are registered here.
		if !hooked {
			copy(ar.planes[base:base+width], ar.valRow[:width])
			return
		}
		for b := 0; b < width; b++ {
			i := base + b
			ar.oldRow[b] = ar.planes[i]
			ar.planes[i] = ar.valRow[b]
		}
		ar.runWriteHooks(width, addr, base)
		return
	}
	for b := 0; b < width; b++ {
		i := base + b
		old := ar.planes[i]
		ar.oldRow[b] = old
		v := ar.valRow[b]
		st := (v | ar.stuck1[i]) &^ ar.stuck0[i]
		st &^= ar.failRise[i] &^ old & v
		st |= ar.failFall[i] & old &^ v
		st = st&^red | old&red
		ar.planes[i] = st
	}
	if hooked {
		ar.runWriteHooks(width, addr, base)
	}
}

func (ar *laneArena) enforceCFst(h *laneHook) {
	if (ar.planes[h.aggrIdx]&h.lane != 0) == h.rise {
		ar.planes[h.victimIdx] = ar.planes[h.victimIdx]&^h.lane | h.forced
	}
}

func (ar *laneArena) enforceNPSF(h *laneHook, width int) {
	spec := &ar.npsf[h.dataIdx]
	for i := 0; i < 4; i++ {
		var bit int32
		if n := spec.neigh[i]; n >= 0 && ar.planes[int(n)*width]&h.lane != 0 {
			bit = 1
		}
		if bit != spec.pattern[i] {
			return
		}
	}
	ar.planes[h.victimIdx] = ar.planes[h.victimIdx]&^h.lane | h.forced
}

func (ar *laneArena) runWriteHooks(width, addr, base int) {
	hooks := ar.writeHooks[addr]
	for i := range hooks {
		h := &hooks[i]
		if h.lane&ar.live == 0 {
			continue
		}
		switch h.kind {
		case hookCFst:
			ar.enforceCFst(h)
		case hookCFid:
			ob, nb := ar.oldRow[h.aggrBit], ar.planes[base+int(h.aggrBit)]
			trig := ob &^ nb
			if h.rise {
				trig = nb &^ ob
			}
			if trig&h.lane != 0 {
				ar.planes[h.victimIdx] = ar.planes[h.victimIdx]&^h.lane | h.forced
			}
		case hookCFin:
			ob, nb := ar.oldRow[h.aggrBit], ar.planes[base+int(h.aggrBit)]
			trig := ob &^ nb
			if h.rise {
				trig = nb &^ ob
			}
			if trig&h.lane != 0 {
				ar.planes[h.victimIdx] ^= h.lane
			}
		case hookChain:
			ar.runChain(h, width, addr, base)
		case hookAliasWrite:
			tb := int(h.to) * width
			for b := 0; b < width; b++ {
				ar.planes[tb+b] = ar.planes[tb+b]&^h.lane | ar.valRow[b]&h.lane
			}
		case hookShadowWrite:
			fb, tb := int(h.from)*width, int(h.to)*width
			for b := 0; b < width; b++ {
				ar.planes[tb+b] = ar.planes[tb+b]&^h.lane | ar.planes[fb+b]&h.lane
			}
		case hookNPSF:
			ar.enforceNPSF(h, width)
		}
	}
}

func laneTransitioned(ob, nb, trigger int) bool {
	if trigger == 1 {
		return ob == 0 && nb == 1
	}
	return ob == 1 && nb == 0
}

// runChain replays a Linked fault's component chain for one lane with
// exact scalar ordering: both components' onWrite on the in-flight
// value (B sees A's modification), commit, then both components' side
// effects on the committed state.
func (ar *laneArena) runChain(h *laneHook, width, addr, base int) {
	lane := h.lane
	// Overlay of victim-bit modifications the onWrite chain makes to
	// the written value; the bulk commit already stored the raw value
	// for this lane, so only these deltas need re-committing.
	var ovBit, ovVal [2]int
	nov := 0
	getV := func(b int) int {
		for k := nov - 1; k >= 0; k-- {
			if ovBit[k] == b {
				return ovVal[k]
			}
		}
		if ar.valRow[b]&lane != 0 {
			return 1
		}
		return 0
	}
	comps := &ar.chains[h.dataIdx]
	for ci := 0; ci < len(comps); ci++ {
		c := &comps[ci]
		if c.Aggressor.Addr != addr || c.Victim.Addr != addr {
			continue
		}
		ob := 0
		if ar.oldRow[c.Aggressor.Bit]&lane != 0 {
			ob = 1
		}
		nb := getV(c.Aggressor.Bit)
		switch c.Model {
		case faults.CFst:
			if nb == c.AggrTrigger {
				ovBit[nov], ovVal[nov] = c.Victim.Bit, c.VictimValue
				nov++
			}
		case faults.CFid:
			if laneTransitioned(ob, nb, c.AggrTrigger) {
				ovBit[nov], ovVal[nov] = c.Victim.Bit, c.VictimValue
				nov++
			}
		case faults.CFin:
			if laneTransitioned(ob, nb, c.AggrTrigger) {
				v := 1 - getV(c.Victim.Bit)
				ovBit[nov], ovVal[nov] = c.Victim.Bit, v
				nov++
			}
		}
	}
	for k := 0; k < nov; k++ {
		idx := base + ovBit[k]
		ar.planes[idx] = ar.planes[idx]&^lane | uint64(ovVal[k])*lane
	}
	for ci := 0; ci < len(comps); ci++ {
		c := &comps[ci]
		if c.Model == faults.CFst {
			// Standing enforcement after every write.
			ab := 0
			if ar.planes[c.Aggressor.Addr*width+c.Aggressor.Bit]&lane != 0 {
				ab = 1
			}
			if ab == c.AggrTrigger {
				vi := c.Victim.Addr*width + c.Victim.Bit
				ar.planes[vi] = ar.planes[vi]&^lane | uint64(c.VictimValue)*lane
			}
			continue
		}
		if c.Aggressor.Addr != addr || c.Victim.Addr == addr {
			continue
		}
		ob := 0
		if ar.oldRow[c.Aggressor.Bit]&lane != 0 {
			ob = 1
		}
		nb := 0
		if ar.planes[base+c.Aggressor.Bit]&lane != 0 {
			nb = 1
		}
		if !laneTransitioned(ob, nb, c.AggrTrigger) {
			continue
		}
		vi := c.Victim.Addr*width + c.Victim.Bit
		if c.Model == faults.CFid {
			ar.planes[vi] = ar.planes[vi]&^lane | uint64(c.VictimValue)*lane
		} else {
			ar.planes[vi] ^= lane
		}
	}
}

// read loads the word at addr into rawRow across all lanes and runs
// the address's read hooks (decoder overrides, read disturbs), exactly
// the stimulus sequence the scalar Injected wrapper presents.
func (ar *laneArena) read(width, addr, base int) {
	for b := 0; b < width; b++ {
		ar.rawRow[b] = ar.planes[base+b]
	}
	if ar.readLanes[addr]&ar.live != 0 {
		ar.runReadHooks(width, addr)
	}
}

func (ar *laneArena) runReadHooks(width, addr int) {
	hooks := ar.readHooks[addr]
	for i := range hooks {
		h := &hooks[i]
		if h.lane&ar.live == 0 {
			continue
		}
		switch h.kind {
		case hookAliasRead:
			tb := int(h.to) * width
			for b := 0; b < width; b++ {
				ar.rawRow[b] = ar.rawRow[b]&^h.lane | ar.planes[tb+b]&h.lane
			}
		case hookShadowRead:
			fb, tb := int(h.from)*width, int(h.to)*width
			for b := 0; b < width; b++ {
				ar.rawRow[b] = ar.rawRow[b]&^h.lane | ar.planes[fb+b]&ar.planes[tb+b]&h.lane
			}
		case hookReadDisturb:
			idx := addr*width + int(h.cellBit)
			if (ar.planes[idx]&h.lane != 0) == h.trigVal1 {
				ar.planes[idx] ^= h.lane
				if !h.deceptive {
					ar.rawRow[h.cellBit] ^= h.lane
				}
			}
		}
	}
}

// snapshotLane replicates the initial-snapshot read sweep march.Run
// issues before a pass, through the read hooks (read disturbs and
// decoder faults perturb it exactly as they do the scalar sweep).
func (r *Reference) snapshotLane(ar *laneArena) {
	if ar.nReadHooks == 0 {
		// No read hook can perturb the sweep: snapshotting all lanes
		// is one bulk copy of the planes.
		copy(ar.snap, ar.planes)
		return
	}
	w := r.width
	for addr := 0; addr < r.words; addr++ {
		base := addr * w
		ar.read(w, addr, base)
		copy(ar.snap[base:base+w], ar.rawRow[:w])
	}
}

// replayDirectLane runs the comparator-mode replay across all lanes:
// each read row is XORed against its expected row (evaluated on this
// run's own snapshot) and the mismatch fold is OR-accumulated into the
// per-lane verdicts. The replay exits as soon as every active lane has
// detected — the lane analogue of the scalar early exit. Lanes that
// already detected keep evolving, which is harmless: verdicts are
// sticky and nothing else is observed.
func (r *Reference) replayDirectLane(ar *laneArena) {
	w, n := r.width, r.words
	r.snapshotLane(ar)
	for ei := range r.prog.test {
		e := &r.prog.test[ei]
		ops := e.ops
		addr, step := e.walk(n)
		for k := 0; k < n; k, addr = k+1, addr+step {
			base := addr * w
			for oi := range ops {
				op := &ops[oi]
				if op.kind == march.Write {
					if op.transparent {
						for b := 0; b < w; b++ {
							ar.valRow[b] = ar.snap[base+b] ^ op.rows[b]
						}
					} else {
						copy(ar.valRow[:w], op.rows)
					}
					ar.write(w, addr, base)
					continue
				}
				ar.read(w, addr, base)
				var mm uint64
				if op.transparent {
					for b := 0; b < w; b++ {
						mm |= ar.rawRow[b] ^ ar.snap[base+b] ^ op.rows[b]
					}
				} else {
					for b := 0; b < w; b++ {
						mm |= ar.rawRow[b] ^ op.rows[b]
					}
				}
				if mm != 0 {
					ar.detected |= mm
					if ar.detected&ar.active == ar.active {
						return
					}
					// Detected lanes' verdicts are final — stop paying for
					// their hooks.
					ar.live = ar.active &^ ar.detected
				}
			}
		}
	}
}

// laneCompress runs one signature-mode pass plane-wise and leaves the
// 64 MISR signatures in out (out[b] bit L = signature bit b of lane
// L). It compresses the full feed stream from the zero seed, so every
// lane's signature matches misr.MISR fed the same stream, as on the
// naive path. The memory planes carry over between passes, as the
// naive path's memory does.
func (r *Reference) laneCompress(ar *laneArena, elems []progElem, predict bool, out []uint64) {
	w, n := r.width, r.words
	polyBits := r.prog.polyBits
	clear(out)
	r.snapshotLane(ar)
	for ei := range elems {
		e := &elems[ei]
		ops := e.ops
		addr, step := e.walk(n)
		for k := 0; k < n; k, addr = k+1, addr+step {
			base := addr * w
			for oi := range ops {
				op := &ops[oi]
				if op.kind == march.Write {
					if op.transparent {
						for b := 0; b < w; b++ {
							ar.valRow[b] = ar.snap[base+b] ^ op.rows[b]
						}
					} else {
						copy(ar.valRow[:w], op.rows)
					}
					ar.write(w, addr, base)
					continue
				}
				ar.read(w, addr, base)
				// Clock the 64 registers: Galois shift with the polynomial
				// taps applied to the lanes whose top bit was set, then
				// the feed XOR.
				msb := out[w-1]
				copy(out[1:], out[:w-1])
				out[0] = 0
				for _, pb := range polyBits {
					out[pb] ^= msb
				}
				if predict && op.transparent {
					for b := 0; b < w; b++ {
						out[b] ^= ar.rawRow[b] ^ op.rows[b]
					}
				} else {
					for b := 0; b < w; b++ {
						out[b] ^= ar.rawRow[b]
					}
				}
			}
		}
	}
}

// DetectLane evaluates up to LaneWidth faults in one bit-parallel
// replay and returns their verdicts as a bit vector: bit i is set when
// the campaign's test detects fs[i]. Verdicts are bit-identical to
// calling Detects per fault; errors (invalid faults) are reported for
// the first offending fault with the message Run reports on the naive
// path. A short slice leaves the tail lanes simulating the fault-free
// machine with their verdict bits masked off. Safe for concurrent use.
func (r *Reference) DetectLane(fs []faults.Fault) (uint64, error) {
	if len(fs) == 0 {
		return 0, nil
	}
	if len(fs) > LaneWidth {
		return 0, fmt.Errorf("faultsim: lane capacity is %d faults, got %d", LaneWidth, len(fs))
	}
	ar := r.pool.Get().(*laneArena)
	defer r.pool.Put(ar)
	ar.reset(r)
	for i, f := range fs {
		if !ar.pack(r, f, uint64(1)<<uint(i)) {
			// Reproduce the naive path's error message; pack's checks
			// mirror faults.Inject, so Inject must fail here too.
			if _, err := faults.Inject(ar.scratch, f); err != nil {
				return 0, fmt.Errorf("faultsim: %s: %v", f, err)
			}
			return 0, fmt.Errorf("faultsim: %s: invalid fault", f)
		}
		ar.active |= uint64(1) << uint(i)
	}
	switch r.mode {
	case DirectCompare:
		r.replayDirectLane(ar)
	case Signature:
		r.laneCompress(ar, r.prog.pred, true, ar.sigA)
		r.laneCompress(ar, r.prog.test, false, ar.misr)
		var differ uint64
		for b := 0; b < r.width; b++ {
			differ |= ar.sigA[b] ^ ar.misr[b]
		}
		ar.detected = differ
	default:
		return 0, fmt.Errorf("faultsim: unknown mode %v", r.mode)
	}
	return ar.detected & ar.active, nil
}

// RunLanes executes the reference over a fault list through the
// bit-parallel lane path, chunking the population LaneWidth faults at
// a time in list order. The Report is byte-identical to the one Run
// builds on the naive path — including the Missed cap and its order —
// only the cost differs.
func (r *Reference) RunLanes(list []faults.Fault) (*Report, error) {
	rep := &Report{ByClass: make(map[string]ClassStats)}
	for start := 0; start < len(list); start += LaneWidth {
		end := min(start+LaneWidth, len(list))
		chunk := list[start:end]
		verdict, err := r.DetectLane(chunk)
		if err != nil {
			return nil, err
		}
		// Enumerations group faults by class, so tally each run of
		// equal classes with one map update and one popcount instead
		// of per-fault map writes and bit tests; the per-fault walk
		// only happens when a run has misses still worth recording.
		for j := 0; j < len(chunk); {
			cls := chunk[j].Class()
			j0 := j
			for j < len(chunk) && chunk[j].Class() == cls {
				j++
			}
			tot := j - j0
			run := verdict >> uint(j0)
			if tot < 64 {
				run &= uint64(1)<<uint(tot) - 1
			}
			det := bits.OnesCount64(run)
			if det != tot && len(rep.Missed) < 64 {
				for k := j0; k < j && len(rep.Missed) < 64; k++ {
					if verdict>>uint(k)&1 == 0 {
						rep.Missed = append(rep.Missed, chunk[k])
					}
				}
			}
			cs := rep.ByClass[cls]
			cs.Total += tot
			cs.Detected += det
			rep.ByClass[cls] = cs
			rep.Total += tot
			rep.Detected += det
		}
	}
	return rep, nil
}
