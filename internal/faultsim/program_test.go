package faultsim

import (
	"reflect"
	"testing"

	"twmarch/internal/core"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// access is one memory operation in execution order.
type access struct {
	kind march.OpKind
	addr int
}

// recordingMem logs every access march.Run makes.
type recordingMem struct {
	cells []word.Word
	width int
	log   []access
}

func (m *recordingMem) Read(addr int) word.Word {
	m.log = append(m.log, access{march.Read, addr})
	return m.cells[addr]
}

func (m *recordingMem) Write(addr int, v word.Word) {
	m.log = append(m.log, access{march.Write, addr})
	m.cells[addr] = v.Mask(m.width)
}

func (m *recordingMem) Words() int { return len(m.cells) }
func (m *recordingMem) Width() int { return m.width }

// Each compiled element must walk exactly march.Run's default address
// walk — march.Addresses(order, n, false) — for ⇑, ⇓ and ⇕ elements,
// and the replay loop over the walk must perform the operations Run
// executes, in Run's order. This is the guarantee the replay relies
// on to present the naive path's stimuli.
func TestProgramWalkMatchesRun(t *testing.T) {
	bit := march.MustParse("walk", "{any(w0); up(r0,w1); down(r1,w0,r0); any(r0,w1); down(r1); up(r1,w0)}")
	twm, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Prediction(twm.TWMarch)
	if err != nil {
		t.Fatal(err)
	}
	bitProg, err := Compile(bit, DirectCompare)
	if err != nil {
		t.Fatal(err)
	}
	twmProg, err := Compile(twm.TWMarch, Signature)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		src   *march.Test
		elems []progElem
	}{
		{"bit-oriented", bit, bitProg.test},
		{"twm test", twm.TWMarch, twmProg.test},
		{"twm prediction", pred, twmProg.pred},
	}
	orders := map[march.Order]bool{}
	for _, tc := range cases {
		if len(tc.elems) != len(tc.src.Elements) {
			t.Fatalf("%s: %d compiled elements, test has %d", tc.name, len(tc.elems), len(tc.src.Elements))
		}
		for _, n := range []int{1, 2, 3, 5} {
			var got []access
			for ei := range tc.elems {
				e := &tc.elems[ei]
				order := tc.src.Elements[ei].Order
				orders[order] = true
				var walk []int
				addr, step := e.walk(n)
				for k := 0; k < n; k, addr = k+1, addr+step {
					walk = append(walk, addr)
					for _, op := range e.ops {
						got = append(got, access{op.kind, addr})
					}
				}
				if want := march.Addresses(order, n, false); !reflect.DeepEqual(walk, want) {
					t.Errorf("%s n=%d element %d (%v): walk %v, want %v", tc.name, n, ei, order, walk, want)
				}
			}
			mem := &recordingMem{cells: make([]word.Word, n), width: tc.src.Width}
			if _, err := march.Run(tc.src, mem, march.RunOptions{Initial: make([]word.Word, n)}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, mem.log) {
				t.Errorf("%s n=%d: replay order differs from march.Run\nreplay: %v\nrun:    %v", tc.name, n, got, mem.log)
			}
		}
	}
	for _, o := range []march.Order{march.Up, march.Down, march.Any} {
		if !orders[o] {
			t.Errorf("no element with order %v exercised", o)
		}
	}
}

// A program depends on neither the memory size nor the seed: binding
// one program at several geometries must give the Reference that
// NewReference builds from scratch, verdict for verdict.
func TestBindMatchesNewReference(t *testing.T) {
	for _, c := range equivalenceConfigs(t) {
		p, err := Compile(c.Test, c.Mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, words := range []int{1, 2, c.Words, c.Words + 3} {
			cc := c
			cc.Words = words
			bound, err := p.Bind(cc.Words, cc.Seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewReference(cc)
			if err != nil {
				t.Fatal(err)
			}
			list := fullCatalog(cc.Words, cc.Width)
			a, err := bound.RunLanes(list)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.RunLanes(list)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s %dx%d %v: bound and fresh references differ", c.Test.Name, cc.Words, cc.Width, c.Mode)
			}
			bs, err := scalarOf(bound)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := scalarOf(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bs.testFeeds, fs.testFeeds) || !reflect.DeepEqual(bs.predStates, fs.predStates) {
				t.Errorf("%s %dx%d %v: fault-free passes differ", c.Test.Name, cc.Words, cc.Width, c.Mode)
			}
		}
	}
}

// The scalar oracle's Signature-mode fault-free pass is sized up front
// from the program's reads per address: one feed per read and one
// state more.
func TestFaultFreePassPresized(t *testing.T) {
	c := equivalenceConfigs(t)[1]
	ref, err := newScalarRef(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		name          string
		reads         int
		feeds, states []word.Word
	}{
		{"prediction", ref.predReads, ref.predFeeds, ref.predStates},
		{"test", ref.testReads, ref.testFeeds, ref.testStates},
	} {
		n := pass.reads * c.Words
		if len(pass.feeds) != n || cap(pass.feeds) != n {
			t.Errorf("%s feeds: len %d cap %d, want %d", pass.name, len(pass.feeds), cap(pass.feeds), n)
		}
		if len(pass.states) != n+1 || cap(pass.states) != n+1 {
			t.Errorf("%s states: len %d cap %d, want %d", pass.name, len(pass.states), cap(pass.states), n+1)
		}
	}
}

// Compile reports NewReference's configuration errors for the test
// and mode.
func TestCompileErrors(t *testing.T) {
	res, err := core.TWMTA(march.MustLookup("March C-"), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    Campaign
	}{
		{"nontransparent signature", Campaign{Test: march.MustLookup("March C-"), Words: 3, Width: 1, Mode: Signature}},
		{"unknown mode", Campaign{Test: res.TWMarch, Words: 3, Width: 4, Mode: DetectMode(42)}},
		{"invalid test", Campaign{Test: &march.Test{Name: "empty", Width: 4}, Words: 3, Width: 4}},
	} {
		_, cerr := Compile(tc.c.Test, tc.c.Mode)
		_, rerr := NewReference(tc.c)
		if cerr == nil || rerr == nil || cerr.Error() != rerr.Error() {
			t.Errorf("%s: Compile error %v, NewReference error %v", tc.name, cerr, rerr)
		}
	}
}
