package faults

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twmarch/internal/memory"
	"twmarch/internal/word"
)

func TestStuckAtForcesValue(t *testing.T) {
	mem := memory.MustNew(4, 8)
	inj := MustInject(mem, StuckAt{Cell: Site{2, 3}, Value: 1})
	// Initial condition applied at injection.
	if inj.Read(2).Bit(3) != 1 {
		t.Fatal("SAF1 not forced at injection")
	}
	inj.Write(2, word.Zero)
	if inj.Read(2).Bit(3) != 1 {
		t.Fatal("SAF1 cell cleared by write")
	}
	// Other bits must still follow writes.
	inj.Write(2, word.FromUint64(0xff))
	if inj.Read(2) != word.FromUint64(0xff) {
		t.Fatalf("SAF disturbed other bits: %v", inj.Read(2))
	}
	// Other addresses unaffected.
	inj.Write(1, word.FromUint64(0x55))
	if inj.Read(1) != word.FromUint64(0x55) {
		t.Fatal("SAF disturbed other address")
	}
}

func TestStuckAtZero(t *testing.T) {
	mem := memory.MustNew(2, 4)
	mem.Fill(word.Ones(4))
	inj := MustInject(mem, StuckAt{Cell: Site{0, 0}, Value: 0})
	if inj.Read(0).Bit(0) != 0 {
		t.Fatal("SAF0 not forced at injection")
	}
	inj.Write(0, word.Ones(4))
	if inj.Read(0).Bit(0) != 0 {
		t.Fatal("SAF0 cell set by write")
	}
}

func TestTransitionUpFails(t *testing.T) {
	mem := memory.MustNew(2, 4)
	inj := MustInject(mem, Transition{Cell: Site{0, 1}, Rise: true})
	inj.Write(0, word.FromUint64(0b0010)) // 0→1 on bit 1 must fail
	if inj.Read(0).Bit(1) != 0 {
		t.Fatal("TF↑ cell rose")
	}
	// Force the cell to 1 via a non-transition? It can never rise; set
	// other bits and confirm they work.
	inj.Write(0, word.FromUint64(0b1101))
	if inj.Read(0) != word.FromUint64(0b1101) {
		t.Fatalf("TF↑ disturbed other bits: %v", inj.Read(0))
	}
	// Falling transition of the faulty cell still works: preload 1
	// directly in the base memory (models a cell manufactured at 1).
	mem.Write(0, word.FromUint64(0b0010))
	inj.Write(0, word.Zero)
	if inj.Read(0).Bit(1) != 0 {
		t.Fatal("TF↑ cell failed its healthy falling transition")
	}
}

func TestTransitionDownFails(t *testing.T) {
	mem := memory.MustNew(2, 4)
	mem.Fill(word.Ones(4))
	inj := MustInject(mem, Transition{Cell: Site{1, 2}, Rise: false})
	inj.Write(1, word.Zero) // 1→0 on bit 2 must fail
	if inj.Read(1).Bit(2) != 1 {
		t.Fatal("TF↓ cell fell")
	}
	if inj.Read(1) != word.FromUint64(0b0100) {
		t.Fatalf("TF↓ disturbed other bits: %v", inj.Read(1))
	}
}

func TestCFstInterWord(t *testing.T) {
	mem := memory.MustNew(4, 4)
	// <1;0>: while aggressor 1.0 is 1, victim 2.2 forced to 0.
	inj := MustInject(mem, Coupling{Model: CFst, Aggressor: Site{1, 0}, Victim: Site{2, 2}, AggrTrigger: 1, VictimValue: 0})
	inj.Write(2, word.FromUint64(0b0100)) // victim 1, aggressor still 0: fine
	if inj.Read(2).Bit(2) != 1 {
		t.Fatal("victim should be writable while aggressor idle")
	}
	inj.Write(1, word.FromUint64(1)) // aggressor → 1: victim forced to 0
	if inj.Read(2).Bit(2) != 0 {
		t.Fatal("CFst did not force victim when aggressor entered state")
	}
	// While aggressor remains 1, victim writes are overridden.
	inj.Write(2, word.FromUint64(0b0100))
	if inj.Read(2).Bit(2) != 0 {
		t.Fatal("CFst did not hold victim while aggressor in state")
	}
	// Aggressor leaves the state: victim becomes writable again.
	inj.Write(1, word.Zero)
	inj.Write(2, word.FromUint64(0b0100))
	if inj.Read(2).Bit(2) != 1 {
		t.Fatal("victim should be writable after aggressor left state")
	}
}

func TestCFstInitialEnforcement(t *testing.T) {
	mem := memory.MustNew(2, 2)
	mem.Write(0, word.FromUint64(0b01)) // aggressor bit 0 starts at 1
	mem.Write(1, word.FromUint64(0b10)) // victim bit 1 starts at 1
	inj := MustInject(mem, Coupling{Model: CFst, Aggressor: Site{0, 0}, Victim: Site{1, 1}, AggrTrigger: 1, VictimValue: 0})
	if inj.Read(1).Bit(1) != 0 {
		t.Fatal("CFst initial condition not enforced at injection")
	}
}

func TestCFidInterWord(t *testing.T) {
	mem := memory.MustNew(4, 4)
	// <↑;1>: aggressor 0.0 rising sets victim 3.3 to 1.
	inj := MustInject(mem, Coupling{Model: CFid, Aggressor: Site{0, 0}, Victim: Site{3, 3}, AggrTrigger: 1, VictimValue: 1})
	inj.Write(0, word.FromUint64(1)) // rising
	if inj.Read(3).Bit(3) != 1 {
		t.Fatal("CFid<↑;1> did not set victim")
	}
	// Victim can be rewritten; a non-transition write must not retrigger.
	inj.Write(3, word.Zero)
	inj.Write(0, word.FromUint64(1)) // aggressor stays 1: no transition
	if inj.Read(3).Bit(3) != 0 {
		t.Fatal("CFid retriggered without a transition")
	}
	// Falling transition must not trigger the rising-CFid.
	inj.Write(0, word.Zero)
	if inj.Read(3).Bit(3) != 0 {
		t.Fatal("CFid<↑;1> triggered on falling edge")
	}
}

func TestCFidFallingVariant(t *testing.T) {
	mem := memory.MustNew(2, 2)
	mem.Write(0, word.FromUint64(0b01))
	inj := MustInject(mem, Coupling{Model: CFid, Aggressor: Site{0, 0}, Victim: Site{1, 0}, AggrTrigger: 0, VictimValue: 1})
	inj.Write(0, word.Zero) // falling
	if inj.Read(1).Bit(0) != 1 {
		t.Fatal("CFid<↓;1> did not set victim")
	}
}

func TestCFinInterWord(t *testing.T) {
	mem := memory.MustNew(4, 2)
	inj := MustInject(mem, Coupling{Model: CFin, Aggressor: Site{1, 1}, Victim: Site{2, 0}, AggrTrigger: 1})
	if inj.Read(2).Bit(0) != 0 {
		t.Fatal("victim should start at 0")
	}
	inj.Write(1, word.FromUint64(0b10)) // rising: victim inverts → 1
	if inj.Read(2).Bit(0) != 1 {
		t.Fatal("CFin did not invert victim")
	}
	inj.Write(1, word.Zero)             // falling: no effect for ↑ trigger
	inj.Write(1, word.FromUint64(0b10)) // rising again: invert back → 0
	if inj.Read(2).Bit(0) != 0 {
		t.Fatal("CFin second inversion missing")
	}
}

func TestCouplingIntraWordSameWrite(t *testing.T) {
	// Aggressor and victim in one word: a single word write that
	// raises the aggressor forces the victim within that same write.
	mem := memory.MustNew(2, 4)
	inj := MustInject(mem, Coupling{Model: CFid, Aggressor: Site{0, 0}, Victim: Site{0, 3}, AggrTrigger: 1, VictimValue: 1})
	inj.Write(0, word.FromUint64(0b0001)) // aggressor rises; victim written 0 but forced 1
	if inj.Read(0).Bit(3) != 1 {
		t.Fatal("intra-word CFid did not force victim in the same write")
	}
}

func TestCouplingIntraWordCFst(t *testing.T) {
	mem := memory.MustNew(1, 4)
	inj := MustInject(mem, Coupling{Model: CFst, Aggressor: Site{0, 1}, Victim: Site{0, 2}, AggrTrigger: 1, VictimValue: 1})
	inj.Write(0, word.FromUint64(0b0010)) // aggressor in state 1 → victim forced 1
	if inj.Read(0).Bit(2) != 1 {
		t.Fatal("intra-word CFst not enforced")
	}
	inj.Write(0, word.Zero) // aggressor leaves state: victim free
	if inj.Read(0).Bit(2) != 0 {
		t.Fatal("victim not writable after aggressor left state")
	}
}

func TestCouplingIntraWordCFin(t *testing.T) {
	mem := memory.MustNew(1, 2)
	inj := MustInject(mem, Coupling{Model: CFin, Aggressor: Site{0, 0}, Victim: Site{0, 1}, AggrTrigger: 1})
	inj.Write(0, word.FromUint64(0b11)) // aggressor rises; victim write 1 inverted → 0
	if inj.Read(0).Bit(1) != 0 {
		t.Fatal("intra-word CFin did not invert the concurrently written victim")
	}
}

func TestInjectValidation(t *testing.T) {
	mem := memory.MustNew(2, 2)
	if _, err := Inject(mem, StuckAt{Cell: Site{5, 0}, Value: 0}); err == nil {
		t.Error("out-of-range address accepted")
	}
	if _, err := Inject(mem, StuckAt{Cell: Site{0, 7}, Value: 0}); err == nil {
		t.Error("out-of-range bit accepted")
	}
	if _, err := Inject(mem, Coupling{Model: CFin, Aggressor: Site{0, 0}, Victim: Site{0, 0}, AggrTrigger: 1}); err == nil {
		t.Error("self-coupling accepted")
	}
}

func TestFaultStrings(t *testing.T) {
	cases := []struct {
		f    Fault
		want string
	}{
		{StuckAt{Cell: Site{2, 3}, Value: 1}, "SAF1@2.3"},
		{Transition{Cell: Site{0, 1}, Rise: true}, "TF↑@0.1"},
		{Transition{Cell: Site{0, 1}, Rise: false}, "TF↓@0.1"},
		{Coupling{Model: CFst, Aggressor: Site{0, 0}, Victim: Site{1, 1}, AggrTrigger: 1, VictimValue: 0}, "CFst<1;0> 0.0->1.1"},
		{Coupling{Model: CFid, Aggressor: Site{0, 0}, Victim: Site{1, 1}, AggrTrigger: 0, VictimValue: 1}, "CFid<↓;1> 0.0->1.1"},
		{Coupling{Model: CFin, Aggressor: Site{0, 0}, Victim: Site{1, 1}, AggrTrigger: 1}, "CFin<↑> 0.0->1.1"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestFaultClassesAndScope(t *testing.T) {
	intra := Coupling{Model: CFid, Aggressor: Site{3, 0}, Victim: Site{3, 1}, AggrTrigger: 1}
	inter := Coupling{Model: CFid, Aggressor: Site{3, 0}, Victim: Site{2, 0}, AggrTrigger: 1}
	if !intra.IntraWord() || inter.IntraWord() {
		t.Error("IntraWord classification broken")
	}
	if intra.Class() != "CFid" || (StuckAt{}).Class() != "SAF" || (Transition{}).Class() != "TF" {
		t.Error("Class labels broken")
	}
}

func TestEnumerationCounts(t *testing.T) {
	const nw, wd = 3, 4 // 12 cells
	cells := nw * wd
	if got := len(EnumerateStuckAt(nw, wd)); got != 2*cells {
		t.Errorf("SAF count = %d, want %d", got, 2*cells)
	}
	if got := len(EnumerateTransition(nw, wd)); got != 2*cells {
		t.Errorf("TF count = %d, want %d", got, 2*cells)
	}
	allPairs := cells * (cells - 1)
	intraPairs := nw * wd * (wd - 1)
	interPairs := allPairs - intraPairs
	if got := len(EnumerateCFst(nw, wd, AllPairs)); got != 4*allPairs {
		t.Errorf("CFst all = %d, want %d", got, 4*allPairs)
	}
	if got := len(EnumerateCFid(nw, wd, IntraWordPairs)); got != 4*intraPairs {
		t.Errorf("CFid intra = %d, want %d", got, 4*intraPairs)
	}
	if got := len(EnumerateCFin(nw, wd, InterWordPairs)); got != 2*interPairs {
		t.Errorf("CFin inter = %d, want %d", got, 2*interPairs)
	}
	total := 2*cells + 2*cells + 4*allPairs + 4*allPairs + 2*allPairs
	if got := len(EnumerateAll(nw, wd)); got != total {
		t.Errorf("EnumerateAll = %d, want %d", got, total)
	}
}

func TestEnumerationScopesPartition(t *testing.T) {
	intra := EnumerateCFin(2, 4, IntraWordPairs)
	inter := EnumerateCFin(2, 4, InterWordPairs)
	all := EnumerateCFin(2, 4, AllPairs)
	if len(intra)+len(inter) != len(all) {
		t.Fatalf("scopes do not partition: %d + %d != %d", len(intra), len(inter), len(all))
	}
	for _, f := range intra {
		if !f.(Coupling).IntraWord() {
			t.Fatalf("intra scope returned inter-word fault %s", f)
		}
	}
	for _, f := range inter {
		if f.(Coupling).IntraWord() {
			t.Fatalf("inter scope returned intra-word fault %s", f)
		}
	}
}

// Property: a faulty memory behaves identically to a fault-free one on
// any access sequence that never touches the fault sites' words.
func TestFaultLocality(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		clean := memory.MustNew(8, 8)
		clean.Randomize(r)
		dirty := clean.Clone()
		inj := MustInject(dirty, Coupling{
			Model:       CouplingModel(r.Intn(3)),
			Aggressor:   Site{6, r.Intn(8)},
			Victim:      Site{7, r.Intn(8)},
			AggrTrigger: r.Intn(2),
			VictimValue: r.Intn(2),
		})
		for i := 0; i < 200; i++ {
			addr := r.Intn(6) // never addresses 6 or 7
			v := word.FromUint64(r.Uint64()).Mask(8)
			clean.Write(addr, v)
			inj.Write(addr, v)
			if clean.Read(addr) != inj.Read(addr) {
				t.Fatal("fault affected unrelated addresses")
			}
		}
	}
}

func TestEnumerateAllStringsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range EnumerateAll(2, 2) {
		s := f.String()
		if seen[s] {
			t.Fatalf("duplicate fault name %q", s)
		}
		seen[s] = true
	}
}

func TestCouplingModelString(t *testing.T) {
	if CFst.String() != "CFst" || CFid.String() != "CFid" || CFin.String() != "CFin" {
		t.Error("model names broken")
	}
	if !strings.Contains(CouplingModel(9).String(), "9") {
		t.Error("out-of-range model should format its value")
	}
}

// embedded is a fault type from outside the sealed set: it satisfies
// Fault through the StuckAt it embeds.
type embedded struct{ StuckAt }

// A pointer to one of the fault types stands for its value: Value
// dereferences it, and Inject range-checks and injects it as the
// value. Nil pointers and types outside the package are rejected.
func TestValueDereferencesPointers(t *testing.T) {
	for _, f := range append(EnumerateAll(2, 2), EnumerateReadDestructive(2, 2)[0], EnumerateAddrFaults(2)[0],
		EnumerateLinkedCFid(2, 2)[0], EnumerateNPSF(3, 3)[0]) {
		p := pointerTo(f)
		if v, ok := Value(p); !ok || v != f {
			t.Errorf("Value(&%s) = %v, %v; want the value", f, v, ok)
		}
		if v, ok := Value(f); !ok || v != f {
			t.Errorf("Value(%s) = %v, %v; want it unchanged", f, v, ok)
		}
	}
	bad := StuckAt{Cell: Site{Addr: 99}}
	_, want := Inject(memory.MustNew(3, 4), bad)
	_, got := Inject(memory.MustNew(3, 4), &bad)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("pointer error %v, value error %v", got, want)
	}
	for _, f := range []Fault{(*StuckAt)(nil), embedded{}, nil} {
		if _, ok := Value(f); ok {
			t.Errorf("Value(%T) accepted", f)
		}
		if _, err := Inject(memory.MustNew(3, 4), f); err == nil || !strings.Contains(err.Error(), "unsupported fault type") {
			t.Errorf("Inject(%T) = %v, want an unsupported-type error", f, err)
		}
	}
}

// pointerTo returns a pointer to a copy of f.
func pointerTo(f Fault) Fault {
	p := reflect.New(reflect.TypeOf(f))
	p.Elem().Set(reflect.ValueOf(f))
	return p.Interface().(Fault)
}
