// Package faults implements the classical functional RAM fault models
// the paper evaluates against (Section 2): stuck-at faults, transition
// faults, and the three coupling-fault families (state, idempotent,
// inversion), each in intra-word and inter-word form for word-oriented
// memories.
//
// A fault is injected by wrapping a fault-free *memory.Memory in an
// Injected accessor that perturbs write behaviour at bit granularity.
// Reads are non-destructive in these models, so the wrapper keeps the
// perturbed state in the underlying memory and leaves the read path
// untouched. The standard single-fault assumption applies: fault
// effects do not cascade into other faults.
package faults

import (
	"fmt"

	"twmarch/internal/memory"
	"twmarch/internal/word"
)

// Site identifies one bit cell: a word address plus a bit position.
type Site struct {
	Addr int
	Bit  int
}

// String formats the site as addr.bit.
func (s Site) String() string { return fmt.Sprintf("%d.%d", s.Addr, s.Bit) }

// Fault is a functional fault that perturbs memory behaviour.
type Fault interface {
	// String names the fault instance, e.g. "SAF0@2.3" or
	// "CFid<↑;1> 0.1->0.2".
	String() string
	// Class returns the fault class label used in coverage reports:
	// "SAF", "TF", "CFst", "CFid", or "CFin".
	Class() string
	// IntraWord reports whether all involved cells share one word
	// address. Single-cell faults are intra-word by definition.
	IntraWord() bool

	// init forces any initial condition (stuck values, state-coupling
	// enforcement) onto the memory at injection time.
	init(m *memory.Memory)
	// onWrite perturbs a write of value v to address addr given the
	// previous content old, returning the value actually stored.
	// Coupling side effects on other addresses are applied directly
	// to m after the triggering write commits, via sideEffects.
	onWrite(addr int, old, v word.Word) word.Word
	// sideEffects applies post-write coupling effects (victim forcing)
	// to the committed memory state. addr is the address just written,
	// old its prior content.
	sideEffects(m *memory.Memory, addr int, old word.Word)
}

// StuckAt is a stuck-at fault: the cell permanently holds Value.
type StuckAt struct {
	Cell  Site
	Value int // 0 or 1
}

// String implements Fault.
func (f StuckAt) String() string { return fmt.Sprintf("SAF%d@%s", f.Value, f.Cell) }

// Class implements Fault.
func (f StuckAt) Class() string { return "SAF" }

// IntraWord implements Fault.
func (f StuckAt) IntraWord() bool { return true }

func (f StuckAt) init(m *memory.Memory) {
	m.Write(f.Cell.Addr, m.Read(f.Cell.Addr).SetBit(f.Cell.Bit, f.Value))
}

func (f StuckAt) onWrite(addr int, old, v word.Word) word.Word {
	if addr == f.Cell.Addr {
		return v.SetBit(f.Cell.Bit, f.Value)
	}
	return v
}

func (f StuckAt) sideEffects(*memory.Memory, int, word.Word) {}

// Transition is a transition fault: the cell fails one of its two
// transitions. Rise true means the 0→1 transition fails (TF↑); false
// means 1→0 fails (TF↓).
type Transition struct {
	Cell Site
	Rise bool
}

// String implements Fault.
func (f Transition) String() string {
	dir := "↓"
	if f.Rise {
		dir = "↑"
	}
	return fmt.Sprintf("TF%s@%s", dir, f.Cell)
}

// Class implements Fault.
func (f Transition) Class() string { return "TF" }

// IntraWord implements Fault.
func (f Transition) IntraWord() bool { return true }

func (f Transition) init(*memory.Memory) {}

func (f Transition) onWrite(addr int, old, v word.Word) word.Word {
	if addr != f.Cell.Addr {
		return v
	}
	ob, nb := old.Bit(f.Cell.Bit), v.Bit(f.Cell.Bit)
	if f.Rise && ob == 0 && nb == 1 {
		return v.SetBit(f.Cell.Bit, 0) // rising transition fails
	}
	if !f.Rise && ob == 1 && nb == 0 {
		return v.SetBit(f.Cell.Bit, 1) // falling transition fails
	}
	return v
}

func (f Transition) sideEffects(*memory.Memory, int, word.Word) {}

// CouplingModel distinguishes the three coupling-fault families.
type CouplingModel int

const (
	// CFst: while the aggressor holds AggrTrigger, the victim is
	// forced to VictimValue.
	CFst CouplingModel = iota
	// CFid: when the aggressor undergoes the AggrTrigger transition
	// (1 = rising, 0 = falling), the victim is forced to VictimValue.
	CFid
	// CFin: when the aggressor undergoes the AggrTrigger transition,
	// the victim inverts.
	CFin
)

// String implements fmt.Stringer.
func (m CouplingModel) String() string {
	switch m {
	case CFst:
		return "CFst"
	case CFid:
		return "CFid"
	case CFin:
		return "CFin"
	default:
		return fmt.Sprintf("CouplingModel(%d)", int(m))
	}
}

// Coupling is a two-cell coupling fault between distinct bit cells.
type Coupling struct {
	Model     CouplingModel
	Aggressor Site
	Victim    Site
	// AggrTrigger is the aggressor state (CFst) or transition
	// direction (CFid/CFin; 1 = rising).
	AggrTrigger int
	// VictimValue is the value forced onto the victim (CFst/CFid).
	VictimValue int
}

// String implements Fault.
func (f Coupling) String() string {
	switch f.Model {
	case CFst:
		return fmt.Sprintf("CFst<%d;%d> %s->%s", f.AggrTrigger, f.VictimValue, f.Aggressor, f.Victim)
	case CFid:
		return fmt.Sprintf("CFid<%s;%d> %s->%s", arrow(f.AggrTrigger), f.VictimValue, f.Aggressor, f.Victim)
	default:
		return fmt.Sprintf("CFin<%s> %s->%s", arrow(f.AggrTrigger), f.Aggressor, f.Victim)
	}
}

func arrow(t int) string {
	if t == 1 {
		return "↑"
	}
	return "↓"
}

// Class implements Fault.
func (f Coupling) Class() string { return f.Model.String() }

// IntraWord implements Fault.
func (f Coupling) IntraWord() bool { return f.Aggressor.Addr == f.Victim.Addr }

func (f Coupling) init(m *memory.Memory) {
	if f.Model == CFst {
		f.enforceState(m)
	}
}

func (f Coupling) onWrite(addr int, old, v word.Word) word.Word {
	// Intra-word trigger with victim in the same word: the coupling
	// effect overrides the written victim bit within this very write.
	if f.Aggressor.Addr != addr || f.Victim.Addr != addr {
		return v
	}
	ob, nb := old.Bit(f.Aggressor.Bit), v.Bit(f.Aggressor.Bit)
	switch f.Model {
	case CFst:
		if nb == f.AggrTrigger {
			return v.SetBit(f.Victim.Bit, f.VictimValue)
		}
	case CFid:
		if transitioned(ob, nb, f.AggrTrigger) {
			return v.SetBit(f.Victim.Bit, f.VictimValue)
		}
	case CFin:
		if transitioned(ob, nb, f.AggrTrigger) {
			return v.SetBit(f.Victim.Bit, 1-v.Bit(f.Victim.Bit))
		}
	}
	return v
}

func (f Coupling) sideEffects(m *memory.Memory, addr int, old word.Word) {
	// State coupling is a standing condition: as long as the aggressor
	// sits in the trigger state the victim is held, so enforce after
	// every write wherever it landed (including writes attempting to
	// change the victim itself).
	if f.Model == CFst {
		f.enforceState(m)
		return
	}
	// Transition-triggered effects: the aggressor's word was written;
	// the victim lives elsewhere and is updated after the write
	// commits. The same-word case is handled inside onWrite.
	if f.Aggressor.Addr != addr || f.Victim.Addr == addr {
		return
	}
	cur := m.Read(f.Aggressor.Addr)
	ob, nb := old.Bit(f.Aggressor.Bit), cur.Bit(f.Aggressor.Bit)
	switch f.Model {
	case CFid:
		if transitioned(ob, nb, f.AggrTrigger) {
			vw := m.Read(f.Victim.Addr)
			m.Write(f.Victim.Addr, vw.SetBit(f.Victim.Bit, f.VictimValue))
		}
	case CFin:
		if transitioned(ob, nb, f.AggrTrigger) {
			vw := m.Read(f.Victim.Addr)
			m.Write(f.Victim.Addr, vw.FlipBit(f.Victim.Bit))
		}
	}
}

// enforceState forces the victim while the aggressor sits in the
// trigger state (CFst semantics).
func (f Coupling) enforceState(m *memory.Memory) {
	if m.Read(f.Aggressor.Addr).Bit(f.Aggressor.Bit) != f.AggrTrigger {
		return
	}
	vw := m.Read(f.Victim.Addr)
	if vw.Bit(f.Victim.Bit) != f.VictimValue {
		m.Write(f.Victim.Addr, vw.SetBit(f.Victim.Bit, f.VictimValue))
	}
}

func transitioned(oldBit, newBit, trigger int) bool {
	if trigger == 1 {
		return oldBit == 0 && newBit == 1
	}
	return oldBit == 1 && newBit == 0
}

// Injected wraps a memory with one injected fault. It satisfies the
// march.Mem and memory.Accessor contracts.
type Injected struct {
	mem   *memory.Memory
	fault Fault
}

var _ memory.Accessor = (*Injected)(nil)

// Inject wraps mem with the fault and applies its initial condition.
// The fault's sites must lie within the memory geometry. A pointer to
// one of this package's fault types injects as its value (see Value);
// any other type is an error.
func Inject(mem *memory.Memory, f Fault) (*Injected, error) {
	v, ok := Value(f)
	if !ok {
		return nil, fmt.Errorf("faults: unsupported fault type %T", f)
	}
	f = v
	for _, s := range sitesOf(f) {
		if s.Addr < 0 || s.Addr >= mem.Words() {
			return nil, fmt.Errorf("faults: %s: address %d out of range [0,%d)", f, s.Addr, mem.Words())
		}
		if s.Bit < 0 || s.Bit >= mem.Width() {
			return nil, fmt.Errorf("faults: %s: bit %d out of range [0,%d)", f, s.Bit, mem.Width())
		}
	}
	if c, ok := f.(Coupling); ok && c.Aggressor == c.Victim {
		return nil, fmt.Errorf("faults: %s: aggressor and victim coincide", f)
	}
	switch a := f.(type) {
	case AddrAlias:
		if a.From == a.To {
			return nil, fmt.Errorf("faults: %s: addresses coincide", f)
		}
	case AddrShadow:
		if a.From == a.To {
			return nil, fmt.Errorf("faults: %s: addresses coincide", f)
		}
	}
	inj := &Injected{mem: mem, fault: f}
	f.init(mem)
	return inj, nil
}

// MustInject is Inject for statically valid faults.
func MustInject(mem *memory.Memory, f Fault) *Injected {
	inj, err := Inject(mem, f)
	if err != nil {
		panic(err)
	}
	return inj
}

// Value returns the fault f stands for as a value of one of this
// package's fault types: a pointer to one is dereferenced, so
// &StuckAt{…} range-checks, injects and simulates exactly as its value
// does. ok is false for anything else — a nil pointer, or a type from
// outside the package that embeds a fault — which no simulator models.
func Value(f Fault) (v Fault, ok bool) {
	switch t := f.(type) {
	case StuckAt, Transition, Coupling, Linked, AddrAlias, AddrShadow, ReadDestructive, NPSF:
		return f, true
	case *StuckAt:
		return deref(t)
	case *Transition:
		return deref(t)
	case *Coupling:
		return deref(t)
	case *Linked:
		return deref(t)
	case *AddrAlias:
		return deref(t)
	case *AddrShadow:
		return deref(t)
	case *ReadDestructive:
		return deref(t)
	case *NPSF:
		return deref(t)
	}
	return nil, false
}

func deref[T Fault](p *T) (Fault, bool) {
	if p == nil {
		return nil, false
	}
	return *p, true
}

func sitesOf(f Fault) []Site {
	switch t := f.(type) {
	case StuckAt:
		return []Site{t.Cell}
	case Transition:
		return []Site{t.Cell}
	case Coupling:
		return []Site{t.Aggressor, t.Victim}
	case AddrAlias:
		return []Site{{Addr: t.From}, {Addr: t.To}}
	case AddrShadow:
		return []Site{{Addr: t.From}, {Addr: t.To}}
	case Linked:
		return []Site{t.A.Aggressor, t.A.Victim, t.B.Aggressor, t.B.Victim}
	case ReadDestructive:
		return []Site{t.Cell}
	case NPSF:
		if t.Rows < 1 || t.Cols < 1 {
			return []Site{{Addr: -1}} // forces the range check to fail
		}
		return []Site{{Addr: t.Victim}, {Addr: t.Rows*t.Cols - 1}}
	default:
		return nil
	}
}

// VictimSites returns the bit cells a fault can corrupt — the cells
// whose stored value the fault perturbs, excluding aggressors (which
// trigger but are never themselves corrupted). The second result is
// false for address-decoder faults, whose effect is redirecting whole
// words rather than corrupting fixed cells, so no cell-local footprint
// exists.
//
// The footprint is what field-level error correction sees: a fault
// corrupting at most one bit per word is covered by a SEC code on
// every word, two bits in one word by SEC-DED detection, while a
// decoder fault returns a perfectly valid codeword from the wrong
// address and escapes ECC entirely. internal/campaign's yield pipeline
// uses exactly this classification.
func VictimSites(f Fault) ([]Site, bool) {
	switch t := f.(type) {
	case StuckAt:
		return []Site{t.Cell}, true
	case Transition:
		return []Site{t.Cell}, true
	case Coupling:
		return []Site{t.Victim}, true
	case ReadDestructive:
		return []Site{t.Cell}, true
	case Linked:
		if t.A.Victim == t.B.Victim {
			return []Site{t.A.Victim}, true
		}
		return []Site{t.A.Victim, t.B.Victim}, true
	case NPSF:
		return []Site{{Addr: t.Victim}}, true
	case AddrAlias, AddrShadow:
		return nil, false
	default:
		return nil, false
	}
}

// Fault returns the injected fault.
func (i *Injected) Fault() Fault { return i.fault }

// Read implements memory access; reads are non-destructive. Address
// decoder faults may redirect or combine the accessed words.
func (i *Injected) Read(addr int) word.Word {
	if af, ok := i.fault.(addrFaultRead); ok {
		if v, handled := af.readVia(i.mem, addr); handled {
			return v
		}
	}
	return i.mem.Read(addr)
}

// Write implements memory access with the fault's perturbation.
func (i *Injected) Write(addr int, v word.Word) {
	v = v.Mask(i.mem.Width())
	if af, ok := i.fault.(addrFaultWrite); ok {
		if af.writeVia(i.mem, addr, v) {
			return
		}
	}
	old := i.mem.Read(addr)
	stored := i.fault.onWrite(addr, old, v)
	i.mem.Write(addr, stored)
	i.fault.sideEffects(i.mem, addr, old)
}

// Words implements memory access.
func (i *Injected) Words() int { return i.mem.Words() }

// Width implements memory access.
func (i *Injected) Width() int { return i.mem.Width() }
