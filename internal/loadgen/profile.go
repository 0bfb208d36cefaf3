package loadgen

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"time"

	"twmarch/internal/campaign"
)

// SessionPlan describes one concurrent client session of a profile:
// what kind of campaigns it submits and how it follows them.
type SessionPlan struct {
	// Kind selects the spec generator and follow behavior:
	// interactive (submit then poll status), batch (large grid, slow
	// poll), streaming (tail /events instead of polling), cancel
	// (submit then cancel mid-run), query (no submissions — a read-only
	// session hammering GET /campaigns/query over the warehouse index
	// while the other sessions write).
	Kind string
	// Poll is the status poll interval for polling kinds.
	Poll time.Duration
	// Think is the pause between one campaign settling and the next
	// submission.
	Think time.Duration
}

// Profile is a named workload mix. Each plan runs as one goroutine;
// all randomness inside a session derives from the run seed plus the
// session's index, so a (profile, seed) pair replays the same spec
// sequence every time.
type Profile struct {
	Name  string
	Plans []SessionPlan
}

// profiles is the catalog. Session counts are sized for small hosts —
// the soak gate runs on single-core CI — and lean on spec geometry,
// not concurrency, to shape the load.
var profiles = map[string]Profile{
	"interactive": {Name: "interactive", Plans: []SessionPlan{
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
	}},
	"batch": {Name: "batch", Plans: []SessionPlan{
		{Kind: "batch", Poll: 100 * time.Millisecond, Think: 50 * time.Millisecond},
		{Kind: "batch", Poll: 100 * time.Millisecond, Think: 50 * time.Millisecond},
	}},
	"streaming": {Name: "streaming", Plans: []SessionPlan{
		{Kind: "streaming", Poll: 50 * time.Millisecond, Think: 20 * time.Millisecond},
		{Kind: "streaming", Poll: 50 * time.Millisecond, Think: 20 * time.Millisecond},
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
	}},
	"cancelstorm": {Name: "cancelstorm", Plans: []SessionPlan{
		{Kind: "cancel", Poll: 30 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "cancel", Poll: 30 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "cancel", Poll: 30 * time.Millisecond, Think: 10 * time.Millisecond},
	}},
	// query is the read-heavy mix: one writer keeps results landing in
	// the warehouse while two readers drive the query surface.
	"query": {Name: "query", Plans: []SessionPlan{
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "query", Poll: 15 * time.Millisecond, Think: 5 * time.Millisecond},
		{Kind: "query", Poll: 15 * time.Millisecond, Think: 5 * time.Millisecond},
	}},
	"mixed": {Name: "mixed", Plans: []SessionPlan{
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "batch", Poll: 100 * time.Millisecond, Think: 50 * time.Millisecond},
		{Kind: "streaming", Poll: 50 * time.Millisecond, Think: 20 * time.Millisecond},
		{Kind: "cancel", Poll: 30 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "query", Poll: 25 * time.Millisecond, Think: 10 * time.Millisecond},
	}},
	// chaos carries the mixed workload; Run layers the fault-injection
	// controller on top when this profile is selected. The query
	// session doubles as a soak of the warehouse repair path: every
	// coordinator SIGKILL skips the shutdown snapshot, so the restart
	// must reconcile the index from the journals while readers keep
	// hammering it.
	"chaos": {Name: "chaos", Plans: []SessionPlan{
		{Kind: "interactive", Poll: 20 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "batch", Poll: 100 * time.Millisecond, Think: 50 * time.Millisecond},
		{Kind: "streaming", Poll: 50 * time.Millisecond, Think: 20 * time.Millisecond},
		{Kind: "cancel", Poll: 30 * time.Millisecond, Think: 10 * time.Millisecond},
		{Kind: "query", Poll: 25 * time.Millisecond, Think: 10 * time.Millisecond},
	}},
}

// ProfileByName resolves a profile, listing the catalog on miss.
func ProfileByName(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		names := make([]string, 0, len(profiles))
		for n := range profiles {
			names = append(names, n)
		}
		sort.Strings(names)
		return Profile{}, fmt.Errorf("unknown profile %q (have %v)", name, names)
	}
	return p, nil
}

// ProfileNames lists the catalog for usage text.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SessionRand returns the deterministic rng for session i of a run.
func SessionRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// QueryParamsFor generates the n-th warehouse query of a query
// session: random dimension filters drawn from the same pools the
// spec generators submit, so most queries hit real data, plus
// occasional job-range bounds and tight limits to exercise paging.
// Deterministic in (rng, n) like the spec generators.
func QueryParamsFor(r *rand.Rand, n int) string {
	v := url.Values{}
	if r.Intn(3) > 0 {
		v.Set("test", pick(r, []string{"MATS", "MATS+", "MATS++", "March X", "March C-", "March B"}))
	}
	if r.Intn(2) == 0 {
		v.Set("width", fmt.Sprintf("%d", pick(r, []int{2, 4})))
	}
	if r.Intn(4) == 0 {
		v.Set("scheme", pick(r, []string{"twm", "scheme1"}))
	}
	if r.Intn(8) == 0 {
		v.Set("mode", "compare")
	}
	if r.Intn(4) == 0 {
		lo := 1 + r.Intn(40)
		v.Set("min_job", fmt.Sprintf("%d", lo))
		if r.Intn(2) == 0 {
			v.Set("max_job", fmt.Sprintf("%d", lo+r.Intn(40)))
		}
	}
	v.Set("limit", fmt.Sprintf("%d", 10+r.Intn(90)))
	return v.Encode()
}

// SpecForKind generates the n-th campaign spec of a session. Grid
// geometry is the load knob: interactive cells simulate in a few
// milliseconds, batch cells in tens of milliseconds, so even a
// single-core host keeps every profile responsive while the batch
// kinds still hold leases long enough for chaos to land mid-flight.
func SpecForKind(kind string, r *rand.Rand, n int) campaign.Spec {
	spec := campaign.Spec{
		Name:    fmt.Sprintf("load-%s-%d", kind, n),
		Modes:   []string{"compare"},
		Seed:    r.Int63n(1 << 30),
		Workers: 1,
	}
	switch kind {
	case "batch":
		spec.Tests = []string{pick(r, []string{"March C-", "March B"})}
		spec.Widths = []int{4}
		spec.Words = []int{16, 24}
		spec.Classes = []string{"SAF", "TF", "CFst"}
	case "streaming":
		spec.Tests = []string{"MATS+", "March X"}
		spec.Widths = []int{2, 4}
		spec.Words = []int{8, 12, 16}
		spec.Classes = []string{"SAF", "TF"}
	case "cancel":
		// Slow enough that a cancel reliably lands mid-run.
		spec.Tests = []string{"March C-"}
		spec.Widths = []int{4}
		spec.Words = []int{24, 32}
		spec.Classes = []string{"SAF", "TF", "CFst"}
	default: // interactive
		spec.Tests = []string{pick(r, []string{"MATS", "MATS+", "MATS++", "March X"})}
		spec.Widths = []int{pick(r, []int{2, 4})}
		spec.Words = []int{pick(r, []int{8, 12, 16})}
		spec.Classes = []string{"SAF", "TF"}
		if r.Intn(4) == 0 {
			spec.Modes = []string{"compare", "signature"}
		}
	}
	return spec
}
