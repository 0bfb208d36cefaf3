package campaign

import (
	"fmt"
	"math/bits"
	"sync"

	"twmarch/internal/complexity"
	"twmarch/internal/core"
	"twmarch/internal/faultsim"
	"twmarch/internal/march"
	"twmarch/internal/word"
)

// compiledTest is what a cell derives from its (test, width, scheme,
// mode) before it looks at its memory size or seed: the transformed
// test, its measured and closed-form lengths, and its compiled replay
// program. Every field is a pure function of the key and read-only
// once built, so one value serves every cell of that key, in any
// campaign, on any goroutine.
type compiledTest struct {
	test                           *march.Test
	tcm, tcp, closedTCM, closedTCP int
	// prog is the compiled program, or progErr why compiling failed.
	// Only the reference paths report progErr: the naive path never
	// compiles.
	prog    *faultsim.Program
	progErr error
}

// bind returns the cell's reference: the compiled program bound to
// the cell's memory size and seed.
func (ct *compiledTest) bind(words int, seed int64) (*faultsim.Reference, error) {
	if ct.progErr != nil {
		return nil, ct.progErr
	}
	return ct.prog.Bind(words, seed)
}

// programKey identifies a compiledTest. test is the catalog spelling
// (march.CatalogName), so every accepted spelling of a name shares one
// entry.
type programKey struct {
	test   string
	width  int
	scheme string
	mode   faultsim.DetectMode
}

// maxPrograms is the key space of valid cells: catalog tests × the
// power-of-two widths up to word.MaxWidth × schemes × modes (384 with
// the shipped catalog). Only cells whose transform succeeds are
// entered, and those keys all lie in this space, so the cap never
// binds in practice; it keeps the table bounded regardless.
var maxPrograms = len(march.Catalog()) * bits.Len(uint(word.MaxWidth)) * 2 * 2

// programs is the process-wide table of compiled tests. A package-level
// table is safe here because an entry depends on nothing but its key:
// whichever cell fills it, every later reader gets the same value.
var programs programTable

type programTable struct {
	mu sync.Mutex
	m  map[programKey]*compiledTest
}

// lookup returns the cell's compiled test in detection mode m, from
// the table when present. Errors are those the cell reports: an
// unknown test name, then an unknown scheme, then the transform's.
// Failures are not entered.
func (pt *programTable) lookup(c Cell, m faultsim.DetectMode) (*compiledTest, error) {
	name, ok := march.CatalogName(c.Test)
	if !ok {
		_, err := march.Lookup(c.Test)
		return nil, err
	}
	key := programKey{test: name, width: c.Width, scheme: c.Scheme, mode: m}
	pt.mu.Lock()
	ct, ok := pt.m[key]
	pt.mu.Unlock()
	if ok {
		metProgramHits.Inc()
		return ct, nil
	}
	metProgramMisses.Inc()
	// Compile outside the lock; concurrent cells may duplicate the work
	// for one key, but the results are identical and the first entered
	// is the one every later cell shares.
	ct, err := compileTest(key)
	if err != nil {
		return nil, err
	}
	pt.mu.Lock()
	if prev, ok := pt.m[key]; ok {
		ct = prev
	} else if len(pt.m) < maxPrograms {
		if pt.m == nil {
			pt.m = make(map[programKey]*compiledTest)
		}
		pt.m[key] = ct
	}
	pt.mu.Unlock()
	return ct, nil
}

// compileTest transforms the key's catalog test with its scheme and
// compiles the result for its mode.
func compileTest(key programKey) (*compiledTest, error) {
	bm, err := march.Lookup(key.test)
	if err != nil {
		return nil, err
	}
	ct := &compiledTest{}
	var sch complexity.Scheme
	switch key.scheme {
	case SchemeTWM:
		r, err := core.TWMTA(bm, key.width)
		if err != nil {
			return nil, err
		}
		ct.test, ct.tcm, ct.tcp, sch = r.TWMarch, r.TCM(), r.TCP(), complexity.Proposed
	case SchemeOne:
		r, err := core.Scheme1(bm, key.width)
		if err != nil {
			return nil, err
		}
		ct.test, ct.tcm, ct.tcp, sch = r.Test, r.TCM(), r.TCP(), complexity.Scheme1
	default:
		return nil, fmt.Errorf("campaign: unknown scheme %q", key.scheme)
	}
	if cost, err := complexity.ClosedFormFor(sch, bm, key.width); err == nil {
		ct.closedTCM, ct.closedTCP = cost.TCM, cost.TCP
	}
	ct.prog, ct.progErr = faultsim.Compile(ct.test, key.mode)
	return ct, nil
}
