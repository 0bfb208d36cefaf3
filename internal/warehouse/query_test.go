package warehouse

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"twmarch/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite testdata/search_golden.txt from the current index")

const goldenFile = "testdata/search_golden.txt"

// goldenResults draws one seeded job's grid: one or two tests, widths
// and schemes, one size and one or both modes, so the corpus mixes
// every key dimension and both values of the unkeyed mode.
func goldenResults(rng *rand.Rand) []campaign.CellResult {
	pick := func(from []string) []string {
		p := rng.Perm(len(from))[:1+rng.Intn(2)]
		out := make([]string, len(p))
		for i, k := range p {
			out[i] = from[k]
		}
		return out
	}
	tests := pick([]string{"MATS", "MATS+", "March C-", "March X", "S5"})
	widths := []int{2 << rng.Intn(3)}
	if rng.Intn(2) == 0 {
		widths = append(widths, 2<<rng.Intn(3))
	}
	words := 8 << rng.Intn(2)
	schemes := pick([]string{"scheme1", "twm"})
	modes := pick([]string{"compare", "signature"})
	var out []campaign.CellResult
	for _, tn := range tests {
		for _, wd := range widths {
			for _, sc := range schemes {
				for _, md := range modes {
					r := testResult(len(out), tn, wd, words, sc, md)
					r.Faults = 50 + rng.Intn(200)
					r.Detected = rng.Intn(r.Faults + 1)
					r.TCM, r.TCP = 4+rng.Intn(20), 2+rng.Intn(10)
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// buildGoldenCorpus indexes a seeded job history through the calls
// twmd makes: two jobs at a time stream their cells through their
// Ingester sinks interleaved and out of cell order, some cells are
// left to the settle-time IndexJob backfill (the recovery-seeded
// case), settle order is sometimes reversed, an errored cell rides
// along, and evictions of earlier jobs are interleaved.
func buildGoldenCorpus(t *testing.T, w *Warehouse) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	var live []uint64
	for seq := uint64(1); seq <= 60; seq += 2 {
		pair := [2][]campaign.CellResult{goldenResults(rng), goldenResults(rng)}
		for k := range pair {
			bad := testResult(len(pair[k]), "S5", 4, 8, "twm", "compare")
			bad.Err = "simulated failure"
			pair[k] = append(pair[k], bad)
		}
		sinks := [2]campaign.Sink{w.Ingester(JobID(seq)), w.Ingester(JobID(seq + 1))}
		type emit struct{ k, i int }
		var order []emit
		for k := range pair {
			for i := range pair[k] {
				if rng.Intn(4) != 0 {
					order = append(order, emit{k, i})
				}
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, e := range order {
			sinks[e.k].Emit(pair[e.k][e.i])
		}
		settle := []int{0, 1}
		if rng.Intn(2) == 0 {
			settle = []int{1, 0}
		}
		for _, k := range settle {
			if err := w.IndexJob(JobID(seq+uint64(k)), pair[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live, seq+uint64(k))
		}
		if rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if _, err := w.RemoveJobID(JobID(live[i])); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// goldenQueries covers both plans: the primary plan unfiltered, over a
// job range, from a lower bound, and with in-scan filters; the
// dimension plan test-only, over partial and full prefixes, with gaps
// in the prefix, over job ranges, with a mode filter, and on a test
// that is a strict prefix of another test's name.
func goldenQueries() []Query {
	return []Query{
		{},
		{MinJob: 17, MaxJob: 41},
		{MinJob: 50},
		{Mode: "signature"},
		{Width: 4, Scheme: "twm"},
		{MinJob: 30, MaxJob: 20},
		{Test: "S5"},
		{Test: "MATS"},
		{Test: "MATS+", Width: 8},
		{Test: "March C-", Width: 4, Words: 16},
		{Test: "March X", Width: 8, Words: 16, Scheme: "twm"},
		{Test: "S5", Width: 4, Words: 8, Scheme: "scheme1", MinJob: 10, MaxJob: 45},
		{Test: "MATS+", MinJob: 21, MaxJob: 39},
		{Test: "March C-", Scheme: "scheme1"},
		{Test: "S5", Words: 16},
		{Test: "March X", Mode: "compare"},
		{Test: "March U"},
	}
}

// queryLabel renders the filter half of a Query for the golden file.
func queryLabel(q Query) string {
	return fmt.Sprintf("test=%q width=%d words=%d scheme=%q mode=%q jobs=%d..%d",
		q.Test, q.Width, q.Words, q.Scheme, q.Mode, q.MinJob, q.MaxJob)
}

// renderGolden pages every golden query to completion at limits 1, 7
// and 100 and renders, per query, each limit's records per page and
// the full record sequence — which every limit must reproduce.
// Scanned counts and token bytes are left out: they describe the plan,
// not the answer.
func renderGolden(t *testing.T, w *Warehouse) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, q := range goldenQueries() {
		fmt.Fprintf(&out, "query %s\n", queryLabel(q))
		var first []Record
		for li, limit := range []int{1, 7, 100} {
			q := q
			q.Limit = limit
			var recs []Record
			var sizes []string
			for {
				res, err := w.Search(q)
				if err != nil {
					t.Fatalf("%s limit %d: %v", queryLabel(q), limit, err)
				}
				if res.Scanned >= maxScanPerQuery {
					t.Fatalf("%s limit %d: a page reached the scan cap", queryLabel(q), limit)
				}
				recs = append(recs, res.Records...)
				sizes = append(sizes, fmt.Sprint(len(res.Records)))
				if res.NextToken == "" {
					break
				}
				if len(sizes) > 2000 {
					t.Fatalf("%s limit %d: paging did not terminate", queryLabel(q), limit)
				}
				q.PageToken = res.NextToken
			}
			fmt.Fprintf(&out, "limit %d pages: %s\n", limit, strings.Join(sizes, " "))
			if li == 0 {
				first = recs
				continue
			}
			if fmt.Sprint(recs) != fmt.Sprint(first) {
				t.Fatalf("%s: limit %d pages a different sequence than limit 1", queryLabel(q), limit)
			}
		}
		for _, r := range first {
			fmt.Fprintf(&out, "%s/%d %s/%d/%d/%s/%s %d %d %d %d\n", JobID(r.Job), r.Cell,
				r.Dim.Test, r.Dim.Width, r.Dim.Words, r.Dim.Scheme, r.Dim.Mode,
				r.Faults, r.Detected, r.TCM, r.TCP)
		}
	}
	return out.Bytes()
}

// checkGolden compares the rendered answers with the recorded file,
// naming the first line that differs.
func checkGolden(t *testing.T, stage string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(wl); i++ {
		if g[i] != wl[i] {
			t.Fatalf("%s: line %d differs from %s:\n got  %s\n want %s", stage, i+1, goldenFile, g[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, %s has %d", stage, len(g), goldenFile, len(wl))
}

// TestSearchGolden holds Search to the page sequences recorded in
// testdata: every golden query's records, in order, and its records
// per page at each limit, both on the live index and after a Close
// and reopen.
func TestSearchGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warehouse.idx")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buildGoldenCorpus(t, w)
	got := renderGolden(t, w)
	if *update {
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "live", got)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	checkGolden(t, "reopened", renderGolden(t, w))
}

// TestSearchMatchesBruteForce pages seeded random queries over a
// seeded random history and holds every answer to a brute-force
// reference: filter every live record, sort by the plan's order.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := openTest(t)
	live := map[[2]uint64]Record{}
	for step := 0; step < 300; step++ {
		seq := uint64(1 + rng.Intn(80))
		if rng.Intn(5) == 0 {
			if _, err := w.RemoveJobID(JobID(seq)); err != nil {
				t.Fatal(err)
			}
			for k := range live {
				if k[0] == seq {
					delete(live, k)
				}
			}
			continue
		}
		results := goldenResults(rng)
		for i := range results {
			results[i].Index = rng.Intn(24)
		}
		if err := w.IndexJob(JobID(seq), results); err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			k := [2]uint64{seq, uint64(r.Index)}
			if _, ok := live[k]; !ok {
				live[k] = recordOf(seq, r)
			}
		}
	}
	oneOf := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	for n := 0; n < 400; n++ {
		q := Query{Limit: 1 + rng.Intn(40)}
		if rng.Intn(4) != 0 {
			q.Test = oneOf("MATS", "MATS+", "March C-", "March X", "S5", "March U")
		}
		if rng.Intn(2) == 0 {
			q.Width = 2 << rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			q.Words = 8 << rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			q.Scheme = oneOf("scheme1", "twm")
		}
		if rng.Intn(3) == 0 {
			q.Mode = oneOf("compare", "signature")
		}
		if rng.Intn(2) == 0 {
			q.MinJob = uint64(rng.Intn(90))
		}
		if rng.Intn(2) == 0 {
			q.MaxJob = uint64(rng.Intn(90))
		}

		var want []Record
		for _, r := range live {
			if q.matchesTuple(r.Dim) && (q.Mode == "" || r.Dim.Mode == q.Mode) &&
				r.Job >= q.MinJob && r.Job <= q.maxJob() {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if q.Test != "" {
				return want[a].Key().Compare(want[b].Key()) < 0
			}
			return want[a].Job < want[b].Job || want[a].Job == want[b].Job && want[a].Cell < want[b].Cell
		})

		var got []Record
		for pages := 0; ; pages++ {
			res, err := w.Search(q)
			if err != nil {
				t.Fatalf("%s: %v", queryLabel(q), err)
			}
			if len(res.Records) > q.Limit {
				t.Fatalf("%s: page of %d records over limit %d", queryLabel(q), len(res.Records), q.Limit)
			}
			got = append(got, res.Records...)
			if res.NextToken == "" {
				break
			}
			if pages > len(live) {
				t.Fatalf("%s: paging did not terminate", queryLabel(q))
			}
			q.PageToken = res.NextToken
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s limit %d: got %d records, want %d:\n got  %v\n want %v",
				queryLabel(q), q.Limit, len(got), len(want), got, want)
		}
	}
}
