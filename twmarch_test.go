package twmarch_test

import (
	"fmt"
	"math/rand"
	"testing"

	"twmarch"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	bm, err := twmarch.Lookup("March C-")
	if err != nil {
		t.Fatal(err)
	}
	res, err := twmarch.Transform(bm, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.TCM() != 35 {
		t.Fatalf("TCM = %d, want 35", res.TCM())
	}
	mem := twmarch.NewMemory(64, 32)
	mem.Randomize(rand.New(rand.NewSource(1)))
	before := mem.Snapshot()
	ctl, err := twmarch.NewBIST(res.TWMarch)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctl.Run(mem)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass {
		t.Fatal("clean memory failed BIST")
	}
	if !mem.Equal(before) {
		t.Fatal("contents not preserved")
	}
}

func TestFacadeFaultDetection(t *testing.T) {
	bm, _ := twmarch.Lookup("March U")
	res, err := twmarch.Transform(bm, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := twmarch.NewMemory(32, 8)
	mem.Randomize(rand.New(rand.NewSource(2)))
	faulty, err := twmarch.Inject(mem, twmarch.StuckAt{Cell: twmarch.Site{Addr: 9, Bit: 4}, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := twmarch.RunTest(res.TWMarch, faulty, twmarch.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Detected() {
		t.Fatal("stuck-at fault escaped")
	}
}

func TestFacadeCosts(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	for _, scheme := range []string{"scheme1", "scheme2", "proposed", "tomt", "twmta"} {
		c, err := twmarch.ClosedFormCost(scheme, bm, 32)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if c.TCM <= 0 {
			t.Fatalf("%s: TCM = %d", scheme, c.TCM)
		}
		m, err := twmarch.MeasuredCost(scheme, bm, 32)
		if err != nil {
			t.Fatal(err)
		}
		if m.TCM < c.TCM {
			t.Fatalf("%s: measured %d below closed form %d", scheme, m.TCM, c.TCM)
		}
	}
	if _, err := twmarch.ClosedFormCost("nope", bm, 32); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := twmarch.MeasuredCost("nope", bm, 32); err == nil {
		t.Fatal("unknown scheme accepted by MeasuredCost")
	}
}

func TestFacadeCoverage(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := twmarch.Coverage(res.TWMarch, 3, twmarch.AllFaults(3, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 || rep.Coverage() < 0.9 {
		t.Fatalf("coverage report: %d faults, %.2f", rep.Total, rep.Coverage())
	}
}

func TestFacadeParseAndCatalog(t *testing.T) {
	if len(twmarch.Catalog()) < 10 {
		t.Fatal("catalog too small")
	}
	tst, err := twmarch.ParseTest("mine", "{any(w0); up(r0,w1); down(r1,w0); any(r0)}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twmarch.Transform(tst, 16); err != nil {
		t.Fatal(err)
	}
	wt, err := twmarch.WordOriented(tst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wt.Ops() != tst.Ops()*3 {
		t.Fatalf("word-oriented ops = %d", wt.Ops())
	}
}

func TestFacadeTransformBit(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	tm, pred, err := twmarch.TransformBit(bm)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Ops() != 9 || pred.Ops() != 5 {
		t.Fatalf("TMarch C- = %d ops, prediction = %d", tm.Ops(), pred.Ops())
	}
}

// ExampleTransform demonstrates the headline transformation.
func ExampleTransform() {
	bm, _ := twmarch.Lookup("March C-")
	res, _ := twmarch.Transform(bm, 8)
	fmt.Println(res.TSMarch.ASCII())
	fmt.Println(res.ATMarch.ASCII())
	fmt.Printf("TCM=%dN TCP=%dN\n", res.TCM(), res.TCP())
	// Output:
	// {up(ra,w~a); up(r~a,wa); down(ra,w~a); down(r~a,wa); any(ra)}
	// {any(ra,wa^c1,ra^c1,wa,ra); any(ra,wa^c2,ra^c2,wa,ra); any(ra,wa^c3,ra^c3,wa,ra); any(ra)}
	// TCM=25N TCP=15N
}

// ExampleTransformBit shows the classical Section 3 transformation.
func ExampleTransformBit() {
	bm, _ := twmarch.Lookup("March C-")
	tm, pred, _ := twmarch.TransformBit(bm)
	fmt.Println(tm.ASCII())
	fmt.Println(pred.ASCII())
	// Output:
	// {up(ra,w~a); up(r~a,wa); down(ra,w~a); down(r~a,wa); any(ra)}
	// {up(ra); up(r~a); down(ra); down(r~a); any(ra)}
}

func TestFacadeDiagnose(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 8)
	if err != nil {
		t.Fatal(err)
	}
	mem := twmarch.NewMemory(16, 8)
	mem.Randomize(rand.New(rand.NewSource(4)))
	faulty, err := twmarch.Inject(mem, twmarch.StuckAt{Cell: twmarch.Site{Addr: 3, Bit: 2}, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := twmarch.Diagnose(res.TWMarch, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sites) != 1 || rep.Sites[0].Addr != 3 || rep.Sites[0].Bit != 2 {
		t.Fatalf("diagnosis: %s", rep.Summary())
	}
}

func TestFacadeSymmetric(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 8)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := twmarch.MakeSymmetric(res.TWMarch)
	if err != nil {
		t.Fatal(err)
	}
	mem := twmarch.NewMemory(16, 8)
	mem.Randomize(rand.New(rand.NewSource(5)))
	before := mem.Snapshot()
	out, err := twmarch.RunSymmetric(sym, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass || !mem.Equal(before) {
		t.Fatal("symmetric session failed on clean memory")
	}
}

func TestFacadeOnlineSim(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := twmarch.NewBIST(res.TWMarch)
	if err != nil {
		t.Fatal(err)
	}
	mem := twmarch.NewMemory(8, 4)
	stats, err := twmarch.SimulateOnline(ctl, mem, &twmarch.FixedWindows{Len: ctl.SessionOps() * 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CompletedRuns != 3 || !stats.AllPassed {
		t.Fatalf("online sim: %+v", stats)
	}
}

func TestFacadeAliasingStream(t *testing.T) {
	errs, err := twmarch.AliasingErrorStream(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("stream length %d", len(errs))
	}
	m, err := twmarch.NewMISR(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errs {
		m.Feed(e)
	}
	if !m.Signature().IsZero() {
		t.Fatal("aliasing stream does not compress to zero")
	}
	if _, err := twmarch.AliasingErrorStream(17, 4); err == nil {
		t.Fatal("untabulated width accepted")
	}
}

// A scale smoke test: the full BIST flow on a 64K x 32 memory (2 MiB
// of simulated SRAM) stays well inside interactive time.
func TestLargeMemorySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-memory smoke test")
	}
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 32)
	if err != nil {
		t.Fatal(err)
	}
	mem := twmarch.NewMemory(1<<16, 32)
	mem.Randomize(rand.New(rand.NewSource(6)))
	ctl, err := twmarch.NewBIST(res.TWMarch)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctl.Run(mem)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass {
		t.Fatal("clean 64Kx32 memory failed")
	}
	if out.Ops != ctl.SessionOps()*(1<<16) {
		t.Fatalf("ops = %d", out.Ops)
	}
}

// A pointer to a fault is the fault: Coverage reports an out-of-range
// pointer with its value's error instead of panicking.
func TestFacadeCoveragePointerFault(t *testing.T) {
	bm, _ := twmarch.Lookup("March C-")
	res, err := twmarch.Transform(bm, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := twmarch.StuckAt{Cell: twmarch.Site{Addr: 99}}
	_, verr := twmarch.Coverage(res.TWMarch, 3, []twmarch.Fault{bad}, 1)
	_, perr := twmarch.Coverage(res.TWMarch, 3, []twmarch.Fault{&bad}, 1)
	const want = "faultsim: SAF0@99.0: faults: SAF0@99.0: address 99 out of range [0,3)"
	if verr == nil || verr.Error() != want || perr == nil || perr.Error() != want {
		t.Errorf("value error %v, pointer error %v; want %q", verr, perr, want)
	}
}
