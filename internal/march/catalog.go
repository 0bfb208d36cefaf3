package march

import (
	"fmt"
	"sort"
)

// CatalogEntry describes a well-known bit-oriented march test.
type CatalogEntry struct {
	// Name is the canonical test name, e.g. "March C-".
	Name string
	// Notation is the ASCII notation the test is built from.
	Notation string
	// Reference cites where the test was published.
	Reference string
	// Detects summarizes the fault classes the test is known to cover.
	Detects string
}

// catalog lists the bit-oriented march tests shipped with the library.
// All notations are written with explicit initialization elements; the
// transparency transforms strip them per Nicolaidis' rules.
var catalog = []CatalogEntry{
	{
		Name:      "MATS",
		Notation:  "{any(w0); any(r0,w1); any(r1)}",
		Reference: "Nair, IEEE Trans. Computers 1979",
		Detects:   "SAF",
	},
	{
		Name:      "MATS+",
		Notation:  "{any(w0); up(r0,w1); down(r1,w0)}",
		Reference: "Abadir & Reghbati, ACM Comp. Surveys 1983",
		Detects:   "SAF, AF",
	},
	{
		Name:      "MATS++",
		Notation:  "{any(w0); up(r0,w1); down(r1,w0,r0)}",
		Reference: "van de Goor, 'Testing Semiconductor Memories' 1991",
		Detects:   "SAF, TF, AF",
	},
	{
		Name:      "March X",
		Notation:  "{any(w0); up(r0,w1); down(r1,w0); any(r0)}",
		Reference: "van de Goor, 'Testing Semiconductor Memories' 1991",
		Detects:   "SAF, TF, AF, CFin",
	},
	{
		Name:      "March Y",
		Notation:  "{any(w0); up(r0,w1,r1); down(r1,w0,r0); any(r0)}",
		Reference: "van de Goor, 'Testing Semiconductor Memories' 1991",
		Detects:   "SAF, TF, AF, CFin, linked TF",
	},
	{
		Name:      "March C",
		Notation:  "{any(w0); up(r0,w1); up(r1,w0); any(r0); down(r0,w1); down(r1,w0); any(r0)}",
		Reference: "Marinescu, ITC 1982",
		Detects:   "SAF, TF, AF, CF",
	},
	{
		Name:      "March C-",
		Notation:  "{any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0)}",
		Reference: "van de Goor, IEEE D&T 1993 (Marinescu 1982 minus redundancy)",
		Detects:   "SAF, TF, AF, 100% unlinked CF (CFin, CFid, CFst)",
	},
	{
		Name:      "March A",
		Notation:  "{any(w0); up(r0,w1,w0,w1); up(r1,w0,w1); down(r1,w0,w1,w0); down(r0,w1,w0)}",
		Reference: "Suk & Reddy, IEEE Trans. Computers 1981",
		Detects:   "SAF, TF, AF, CFin, linked CFid",
	},
	{
		Name:      "March B",
		Notation:  "{any(w0); up(r0,w1,r1,w0,r0,w1); up(r1,w0,w1); down(r1,w0,w1,w0); down(r0,w1,w0)}",
		Reference: "Suk & Reddy, IEEE Trans. Computers 1981",
		Detects:   "SAF, TF, AF, CFin, linked TF/CFid",
	},
	{
		Name:      "March U",
		Notation:  "{any(w0); up(r0,w1,r1,w0); up(r0,w1); down(r1,w0,r0,w1); down(r1,w0)}",
		Reference: "van de Goor & Gaydadjiev, IEE Proc. Circuits Devices Syst. 1997",
		Detects:   "SAF, TF, AF, unlinked CF, some linked faults",
	},
	{
		Name:      "March LR",
		Notation:  "{any(w0); down(r0,w1); up(r1,w0,r0,w1); up(r1,w0); up(r0,w1,r1,w0); up(r0)}",
		Reference: "van de Goor et al., ATS 1996",
		Detects:   "SAF, TF, AF, CF, realistic linked faults",
	},
	{
		Name:      "March SS",
		Notation:  "{any(w0); up(r0,r0,w0,r0,w1); up(r1,r1,w1,r1,w0); down(r0,r0,w0,r0,w1); down(r1,r1,w1,r1,w0); any(r0)}",
		Reference: "Hamdioui, Al-Ars & van de Goor, MTDT 2002",
		Detects:   "all static simple faults incl. RDF/DRDF/WDF (read-after-read pairs)",
	},
}

var catalogByName map[string]*Test

func init() {
	catalogByName = make(map[string]*Test, len(catalog))
	for _, e := range catalog {
		t := MustParse(e.Name, e.Notation)
		if !t.IsBitOriented() {
			panic(fmt.Sprintf("march: catalog test %q is not bit-oriented", e.Name))
		}
		catalogByName[canonical(e.Name)] = t
	}
}

// canonical normalizes a test name for lookup: case-insensitive, and
// tolerant of spacing and "minus" spelling ("marchc-", "March C-",
// "march cminus" all match March C-).
func canonical(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '_':
			// skip
		default:
			out = append(out, r)
		}
	}
	s := string(out)
	if len(s) > 5 && s[len(s)-5:] == "minus" {
		s = s[:len(s)-5] + "-"
	}
	return s
}

// Lookup returns the catalog test with the given name. The lookup is
// case- and spacing-insensitive.
func Lookup(name string) (*Test, error) {
	t, ok := catalogByName[canonical(name)]
	if !ok {
		return nil, fmt.Errorf("march: unknown test %q (have: %s)", name, catalogNames())
	}
	return t.Clone(), nil
}

// CatalogName returns the catalog spelling of a test name, accepting
// every spelling Lookup accepts ("march c-" → "March C-"). It reports
// false for names Lookup rejects.
func CatalogName(name string) (string, bool) {
	t, ok := catalogByName[canonical(name)]
	if !ok {
		return "", false
	}
	return t.Name, true
}

// MustLookup is Lookup for statically known names.
func MustLookup(name string) *Test {
	t, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Catalog returns the catalog metadata, sorted by test length then
// name, so callers can enumerate the shipped tests.
func Catalog() []CatalogEntry {
	out := make([]CatalogEntry, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool {
		li := MustLookup(out[i].Name).Ops()
		lj := MustLookup(out[j].Name).Ops()
		if li != lj {
			return li < lj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func catalogNames() string {
	names := ""
	for i, e := range catalog {
		if i > 0 {
			names += ", "
		}
		names += e.Name
	}
	return names
}
