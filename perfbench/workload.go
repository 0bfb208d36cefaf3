package main

import (
	"fmt"
	"math"
	"math/rand"

	"twmarch/internal/campaign"
)

// workload is one traffic mix the benchmark drives. Every workload is
// closed loop: each client submits a campaign, follows its event
// stream until it settles, fetches and checks the results, evicts it
// with DELETE, then submits the next. The campaign list is fixed by
// the seed and sized from the run length, so every run of a given
// length does the same simulated work whatever the program's speed.
type workload struct {
	name string
	// cluster runs twmd -cluster plus one twmw instead of local twmd.
	cluster bool
	// corpus restarts twmd over the pre-built query corpus and adds the
	// query reader beside the writer.
	corpus bool
	// clients is the number of closed-loop campaign clients.
	clients int
	// rate is the nominal campaigns per second that sizes the list:
	// seconds × rate campaigns, rounded up to whole cycles of gen.
	rate float64
	// cycle is the list granularity: each cycle calls gen once per
	// slot 0..cycle-1 in order, and gen derives its fixed choices from
	// the slot, so runs of any seed carry the same mix in the same order;
	// the seed picks the remaining choices and every campaign's seed.
	cycle int
	// verifyEvery re-simulates one settled campaign in this many
	// in-process (1 = all); the rest are still checked structurally.
	verifyEvery int
	// setups is how many times the daemons are started to sample
	// setup_s; the last start serves the measured window.
	setups int
	gen    func(r *rand.Rand, i int) campaign.Spec
}

// nproc is the client and worker-slot count: the cores of the two-core
// reference machine.
const nproc = 2

var workloads = []*workload{
	{name: "local_small", clients: nproc, rate: 130, cycle: 12, verifyEvery: 1, setups: 15, gen: smallSpec},
	{name: "local_heavy", clients: nproc, rate: 3.4, cycle: 8, verifyEvery: 8, setups: 5, gen: heavySpec},
	{name: "cluster_small", cluster: true, clients: nproc, rate: 3.5, cycle: 12, verifyEvery: 1, setups: 5, gen: smallSpec},
	{name: "query_mix", corpus: true, clients: 1, rate: 60, cycle: 12, verifyEvery: 1, setups: 5, gen: smallSpec},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// catalog is the march-test catalog the small campaigns draw from.
var catalog = []string{"MATS", "MATS+", "MATS++", "March X", "March Y", "March C",
	"March C-", "March A", "March B", "March U", "March LR", "March SS"}

// heavyTests are the tests of the heavy campaigns; a cycle of
// local_heavy runs each once as a coupling grid and once as a yield
// pipeline cell pair.
var heavyTests = []string{"March C-", "March X", "MATS++", "March U"}

// campaignList generates n whole cycles covering at least
// seconds × rate campaigns, shuffled by seed within the cycle structure.
func (w *workload) campaignList(seed int64, seconds float64) []campaign.Spec {
	n := int(math.Ceil(seconds * w.rate))
	cycles := (n + w.cycle - 1) / w.cycle
	if cycles < 1 {
		cycles = 1
	}
	return w.list(seed, cycles*w.cycle)
}

// list returns n campaigns of the workload's mix for seed.
func (w *workload) list(seed int64, n int) []campaign.Spec {
	r := rand.New(rand.NewSource(seed))
	out := make([]campaign.Spec, n)
	for i := range out {
		out[i] = w.gen(r, i%w.cycle)
		out[i].Name = fmt.Sprintf("perfbench-%s-%d", w.name, i)
		out[i].Seed = r.Int63()
	}
	return out
}

// smallSpec is a 32-cell small-memory campaign: two tests × two
// widths × two sizes × both schemes × both modes, SAF+TF. Slot k's
// catalog test always appears, so every cycle of 12 covers the catalog
// evenly; the partner test, widths and sizes are seeded.
func smallSpec(r *rand.Rand, k int) campaign.Spec {
	t1 := catalog[k]
	t2 := catalog[(k+1+r.Intn(len(catalog)-1))%len(catalog)]
	widths := [][]int{{2, 4}, {4, 8}, {2, 8}}[r.Intn(3)]
	w1 := 2 + r.Intn(6)
	w2 := w1 + 1 + r.Intn(8-w1)
	return campaign.Spec{
		Tests:   []string{t1, t2},
		Widths:  widths,
		Words:   []int{w1, w2},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare, campaign.ModeSignature},
		Classes: []string{"SAF", "TF"},
	}
}

// heavyClasses is the coupling-fault population of local_heavy.
var heavyClasses = []string{"SAF", "TF", "CFst", "CFid"}

// heavySpec is slot k of a cycle of 8: even slots are 32×8
// coupling-fault grids (~520k faults per cell), odd slots 12×4
// yield-pipeline grids of similar cost, each over one heavy test and
// both schemes.
func heavySpec(_ *rand.Rand, k int) campaign.Spec {
	spec := campaign.Spec{
		Tests:   []string{heavyTests[k/2]},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare},
		Classes: heavyClasses,
	}
	if k%2 == 0 {
		spec.Widths, spec.Words = []int{8}, []int{32}
	} else {
		spec.Widths, spec.Words = []int{4}, []int{12}
		spec.Pipeline = &campaign.PipelineSpec{Enabled: true, SpareRows: 1, SpareCols: 1, ECC: campaign.ECCSEC}
	}
	return spec
}
