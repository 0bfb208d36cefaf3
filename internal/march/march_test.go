package march

import (
	"strings"
	"testing"
	"testing/quick"

	"twmarch/internal/word"
)

func TestDatumValueLiteral(t *testing.T) {
	d := Lit(word.MustParseBits("0101"))
	a := word.MustParseBits("1111")
	if got := d.Value(a, 4); got != word.MustParseBits("0101") {
		t.Fatalf("literal value = %s", got.Bits(4))
	}
}

func TestDatumValueTransparent(t *testing.T) {
	a := word.MustParseBits("1100")
	cases := []struct {
		d    Datum
		want string
	}{
		{Transp(word.Zero), "1100"},
		{TranspInv(word.Zero), "0011"},
		{Transp(word.MustParseBits("0101")), "1001"},
		{TranspInv(word.MustParseBits("0101")), "0110"},
	}
	for _, c := range cases {
		if got := c.d.Value(a, 4); got != word.MustParseBits(c.want) {
			t.Errorf("%s: value = %s, want %s", c.d.Format(4), got.Bits(4), c.want)
		}
	}
}

func TestDatumEffectiveMask(t *testing.T) {
	d := TranspInv(word.MustParseBits("0101"))
	want := word.MustParseBits("1010")
	if got := d.EffectiveMask(4); got != want {
		t.Fatalf("EffectiveMask = %s, want %s", got.Bits(4), want.Bits(4))
	}
}

// Property: for any initial content, Value(a) == a ^ EffectiveMask.
func TestQuickTransparentValueIsXor(t *testing.T) {
	f := func(alo, mlo uint64, inv bool, wseed uint8) bool {
		width := int(wseed)%word.MaxWidth + 1
		a := word.FromUint64(alo).Mask(width)
		d := Datum{Transparent: true, Invert: inv, Mask: word.FromUint64(mlo).Mask(width)}
		return d.Value(a, width) == a.Xor(d.EffectiveMask(width))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDatumSemanticEqualIgnoresLabel(t *testing.T) {
	d1 := Transp(word.MustParseBits("0101")).WithLabel("c1")
	d2 := Transp(word.MustParseBits("0101"))
	if !d1.SemanticEqual(d2, 4) {
		t.Fatal("labelled and unlabelled data should be semantically equal")
	}
	// ~a^m equals a^(~m): invert folded into mask.
	d3 := TranspInv(word.MustParseBits("0101"))
	d4 := Transp(word.MustParseBits("1010"))
	if !d3.SemanticEqual(d4, 4) {
		t.Fatal("~a^0101 should equal a^1010 at width 4")
	}
	if d3.SemanticEqual(d4, 5) {
		t.Fatal("~a^0101 should differ from a^1010 at width 5")
	}
}

func TestDatumFormat(t *testing.T) {
	cases := []struct {
		d     Datum
		width int
		want  string
	}{
		{LitBit(0), 1, "0"},
		{LitBit(1), 1, "1"},
		{Lit(word.MustParseBits("0101")), 4, "0101"},
		{Lit(word.FromUint64(0xab)).WithLabel("b2"), 8, "b2"},
		{Lit(word.FromUint64(0xdeadbeef)), 32, "0xdeadbeef"},
		{Transp(word.Zero), 8, "a"},
		{TranspInv(word.Zero), 8, "~a"},
		{Transp(word.MustParseBits("0101")), 4, "a^0101"},
		{Transp(word.MustParseBits("0101")).WithLabel("c1"), 4, "a^c1"},
		{TranspInv(word.MustParseBits("01010101")).WithLabel("c1"), 8, "~a^c1"},
		{Transp(word.FromUint64(0x55555555)), 32, "a^0x55555555"},
	}
	for _, c := range cases {
		if got := c.d.Format(c.width); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func TestParseMarchCMinus(t *testing.T) {
	tst := MustParse("March C-", "{any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0)}")
	if tst.Width != 1 {
		t.Fatalf("width = %d", tst.Width)
	}
	if got := tst.Ops(); got != 10 {
		t.Fatalf("ops = %d, want 10", got)
	}
	if got := tst.Reads(); got != 5 {
		t.Fatalf("reads = %d, want 5", got)
	}
	if got := tst.Writes(); got != 5 {
		t.Fatalf("writes = %d, want 5", got)
	}
	if !tst.IsBitOriented() {
		t.Fatal("March C- should be bit-oriented")
	}
	if tst.IsTransparent() {
		t.Fatal("March C- is not transparent")
	}
	orders := []Order{Any, Up, Up, Down, Down, Any}
	for i, e := range tst.Elements {
		if e.Order != orders[i] {
			t.Errorf("element %d order = %v, want %v", i, e.Order, orders[i])
		}
	}
}

func TestParseArrowNotation(t *testing.T) {
	a := MustParse("x", "{⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}")
	b := MustParse("x", "{any(w0); up(r0,w1); down(r1,w0)}")
	if a.ASCII() != b.ASCII() {
		t.Fatalf("arrow and ascii notations disagree: %s vs %s", a.ASCII(), b.ASCII())
	}
}

func TestParseTransparentNotation(t *testing.T) {
	tst := MustParse("tm", "{up(ra,w~a); up(r~a,wa); any(ra)}")
	if !tst.IsTransparent() {
		t.Fatal("expected transparent test")
	}
	if tst.Ops() != 5 || tst.Reads() != 3 {
		t.Fatalf("ops=%d reads=%d", tst.Ops(), tst.Reads())
	}
	if err := tst.CheckReadConsistency(); err != nil {
		t.Fatalf("read consistency: %v", err)
	}
}

func TestParseTransparentMask(t *testing.T) {
	tst := MustParse("tm", "{any(ra, wa^0101, ra^0101, wa, ra)}")
	if tst.Width != 4 {
		t.Fatalf("width = %d, want 4", tst.Width)
	}
	if err := tst.CheckReadConsistency(); err != nil {
		t.Fatalf("read consistency: %v", err)
	}
}

func TestParseWordLiterals(t *testing.T) {
	tst := MustParse("wl", "{any(w0101); up(r0101, w1010); up(r1010)}")
	if tst.Width != 4 {
		t.Fatalf("width = %d", tst.Width)
	}
	if err := tst.CheckReadConsistency(); err != nil {
		t.Fatalf("read consistency: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"{}",
		"{up()}",
		"{up(x0)}",
		"{up(r0,w1)",
		"{sideways(r0)}",
		"{up(r0,w1)} trailing",
		"{up(r~)}",
		"{up(~w0)}",
		"{up(r0 w1)}",
	}
	for _, s := range bad {
		if _, err := Parse("bad", s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// Property: print → parse round trip preserves semantics for
// bit-oriented catalog tests.
func TestRoundTripCatalog(t *testing.T) {
	for _, entry := range Catalog() {
		orig := MustLookup(entry.Name)
		re, err := Parse(entry.Name, orig.ASCII())
		if err != nil {
			t.Fatalf("%s: reparse: %v", entry.Name, err)
		}
		if re.ASCII() != orig.ASCII() {
			t.Errorf("%s: round trip mismatch:\n  %s\n  %s", entry.Name, orig.ASCII(), re.ASCII())
		}
	}
}

func TestCatalogContents(t *testing.T) {
	wantLens := map[string]int{
		"MATS":     4,
		"MATS+":    5,
		"MATS++":   6,
		"March X":  6,
		"March Y":  8,
		"March C":  11,
		"March C-": 10,
		"March A":  15,
		"March B":  17,
		"March U":  13,
		"March LR": 14,
	}
	wantReads := map[string]int{
		"March C-": 5,
		"March U":  6,
		"March LR": 7,
		"March B":  6,
	}
	for name, ops := range wantLens {
		tst := MustLookup(name)
		if got := tst.Ops(); got != ops {
			t.Errorf("%s: ops = %d, want %d", name, got, ops)
		}
	}
	for name, reads := range wantReads {
		tst := MustLookup(name)
		if got := tst.Reads(); got != reads {
			t.Errorf("%s: reads = %d, want %d", name, got, reads)
		}
	}
}

func TestCatalogLookupNormalization(t *testing.T) {
	for _, name := range []string{"march c-", "MARCH C-", "MarchC-", "march cminus", "March_C-"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("March Z"); err == nil {
		t.Error("Lookup of unknown test succeeded")
	}
	if !strings.Contains(func() string { _, err := Lookup("nope"); return err.Error() }(), "March C-") {
		t.Error("unknown-test error should list available tests")
	}
}

// CatalogName folds every spelling Lookup accepts onto the catalog
// name, so callers can key tables by it.
func TestCatalogName(t *testing.T) {
	for _, name := range []string{"March C-", "march c-", "MARCH C-", "MarchC-", "march cminus", "March_C-"} {
		got, ok := CatalogName(name)
		if !ok || got != "March C-" {
			t.Errorf("CatalogName(%q) = %q, %v; want \"March C-\", true", name, got, ok)
		}
	}
	if got, ok := CatalogName("March Z"); ok {
		t.Errorf("CatalogName(\"March Z\") = %q, true; want false", got)
	}
}

func TestCatalogSortedByLength(t *testing.T) {
	entries := Catalog()
	prev := 0
	for _, e := range entries {
		l := MustLookup(e.Name).Ops()
		if l < prev {
			t.Fatalf("catalog not sorted: %s has %d ops after %d", e.Name, l, prev)
		}
		prev = l
	}
}

func TestCatalogAllStartWithInitialization(t *testing.T) {
	for _, e := range Catalog() {
		tst := MustLookup(e.Name)
		if !tst.Elements[0].IsWriteOnly() {
			t.Errorf("%s: first element %v is not write-only initialization", e.Name, tst.Elements[0])
		}
	}
}

func TestValidateRejectsBadTests(t *testing.T) {
	cases := []*Test{
		{Name: "no elements", Width: 1},
		{Name: "empty element", Width: 1, Elements: []Element{{Order: Up}}},
		{Name: "bad width", Width: 0, Elements: []Element{Elem(Up, R(LitBit(0)))}},
		{Name: "wide literal", Width: 1, Elements: []Element{Elem(Up, W(Lit(word.FromUint64(2))))}},
		{Name: "wide mask", Width: 2, Elements: []Element{Elem(Up, W(Transp(word.FromUint64(4))))}},
	}
	for _, tc := range cases {
		if err := tc.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", tc.Name)
		}
	}
}

func TestTrackContent(t *testing.T) {
	tst := MustParse("tm", "{up(ra,w~a); up(r~a,wa); any(ra)}")
	states := tst.TrackContent()
	if len(states) != 4 {
		t.Fatalf("states = %d, want 4", len(states))
	}
	// After element 0: ~a; after element 1: a; after element 2: a.
	if m := states[1].Datum.EffectiveMask(1); m != word.Ones(1) {
		t.Errorf("state after element 0: mask %v, want 1", m)
	}
	if m := states[3].Datum.EffectiveMask(1); !m.IsZero() {
		t.Errorf("final state: mask %v, want 0", m)
	}
}

func TestFinalContentNontransparent(t *testing.T) {
	tst := MustLookup("March C-")
	fc := tst.FinalContent()
	if !fc.Known || fc.Datum.Transparent {
		t.Fatal("final content of March C- should be a known literal")
	}
	if !fc.Datum.Const.IsZero() {
		t.Fatalf("March C- final content = %v, want 0", fc.Datum.Const)
	}
}

func TestCheckReadConsistencyCatchesBadRead(t *testing.T) {
	bad := MustNew("bad", 1,
		Elem(Up, R(Transp(word.Zero)), W(TranspInv(word.Zero))),
		Elem(Up, R(Transp(word.Zero))), // content is ~a here, read expects a
	)
	if err := bad.CheckReadConsistency(); err == nil {
		t.Fatal("inconsistent read not caught")
	}
	if err := bad.CheckReadConsistency(); !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("error should locate element 1: %v", err)
	}
}

func TestCheckReadConsistencyNontransparentNeedsInit(t *testing.T) {
	bad := MustNew("bad", 1, Elem(Up, R(LitBit(0))))
	if err := bad.CheckReadConsistency(); err == nil {
		t.Fatal("read-before-write not caught")
	}
	good := MustLookup("March U")
	if err := good.CheckReadConsistency(); err != nil {
		t.Fatalf("March U should be consistent: %v", err)
	}
}

func TestAllCatalogTestsReadConsistent(t *testing.T) {
	for _, e := range Catalog() {
		if err := MustLookup(e.Name).CheckReadConsistency(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := MustLookup("March C-")
	cp := orig.Clone()
	cp.Elements[0].Ops[0] = R(LitBit(1))
	if orig.Elements[0].Ops[0].Kind == Read {
		t.Fatal("Clone shares op storage with original")
	}
}

func TestAddresses(t *testing.T) {
	up := Addresses(Up, 4, false)
	for i, a := range up {
		if a != i {
			t.Fatalf("Up order: %v", up)
		}
	}
	down := Addresses(Down, 4, false)
	for i, a := range down {
		if a != 3-i {
			t.Fatalf("Down order: %v", down)
		}
	}
	anyUp := Addresses(Any, 4, false)
	if anyUp[0] != 0 {
		t.Fatalf("Any default should ascend: %v", anyUp)
	}
	anyDown := Addresses(Any, 4, true)
	if anyDown[0] != 3 {
		t.Fatalf("Any with anyDown should descend: %v", anyDown)
	}
}

func TestOrderFormatting(t *testing.T) {
	if Any.String() != "any" || Up.String() != "up" || Down.String() != "down" {
		t.Error("order String broken")
	}
	if Any.Arrow() != "⇕" || Up.Arrow() != "⇑" || Down.Arrow() != "⇓" {
		t.Error("order Arrow broken")
	}
	if Order(99).String() == "" || Order(99).Arrow() != "?" {
		t.Error("out-of-range order formatting broken")
	}
}

func TestLitBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LitBit(2) did not panic")
		}
	}()
	LitBit(2)
}

func TestStringUsesArrows(t *testing.T) {
	tst := MustLookup("MATS+")
	s := tst.String()
	if !strings.Contains(s, "⇑") || !strings.Contains(s, "⇓") || !strings.Contains(s, "⇕") {
		t.Fatalf("String() = %q, want arrow notation", s)
	}
}
