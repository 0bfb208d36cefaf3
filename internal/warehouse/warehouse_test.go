package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
)

// testResult synthesizes one completed cell result.
func testResult(idx int, test string, width, words int, scheme, mode string) campaign.CellResult {
	return campaign.CellResult{
		Cell: campaign.Cell{
			Index: idx, Test: test, Width: width, Words: words,
			Scheme: scheme, Mode: mode,
		},
		Faults:   100 + idx,
		Detected: 90 + idx,
		TCM:      14,
		TCP:      10,
	}
}

// gridResults expands a small grid of results, one cell per
// (test, width, scheme) combination.
func gridResults() []campaign.CellResult {
	tests := []string{"MATS+", "March C-", "S5"}
	widths := []int{4, 8}
	schemes := []string{"scheme1", "twm"}
	var out []campaign.CellResult
	idx := 0
	for _, tn := range tests {
		for _, wd := range widths {
			for _, sc := range schemes {
				out = append(out, testResult(idx, tn, wd, 16, sc, "compare"))
				idx++
			}
		}
	}
	return out
}

// openTest opens an empty warehouse in a temp dir.
func openTest(t *testing.T) *Warehouse {
	t.Helper()
	w, err := Open(filepath.Join(t.TempDir(), "warehouse.idx"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// indexJobs indexes gridResults() under jobs 1..n.
func indexJobs(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for job := uint64(1); job <= uint64(n); job++ {
		if err := w.IndexJob(JobID(job), gridResults()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWarehouseInsertSearch(t *testing.T) {
	w := openTest(t)
	indexJobs(t, w, 20)
	if got := w.NumJobs(); got != 20 {
		t.Fatalf("NumJobs = %d, want 20", got)
	}

	// Dimension plan: fully pinned dims plus a job range.
	res, err := w.Search(Query{Test: "S5", Width: 8, Words: 16, Scheme: "twm", MinJob: 5, MaxJob: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("pinned query returned %d records, want 6", len(res.Records))
	}
	for i, r := range res.Records {
		if r.Dim.Test != "S5" || r.Dim.Width != 8 || r.Dim.Scheme != "twm" {
			t.Fatalf("record %d has wrong dims: %+v", i, r.Dim)
		}
		if r.Job != uint64(5+i) {
			t.Fatalf("record %d job = %d, want %d", i, r.Job, 5+i)
		}
	}
	// A fully pinned scan should not have examined more than it returned.
	if res.Scanned != len(res.Records) {
		t.Fatalf("pinned query scanned %d entries for %d records", res.Scanned, len(res.Records))
	}

	// Partial prefix: test only.
	res, err = w.Search(Query{Test: "March C-", Limit: MaxQueryLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4*20 {
		t.Fatalf("test-only query returned %d records, want 80", len(res.Records))
	}

	// Primary plan: job range only.
	res, err = w.Search(Query{MinJob: 19, Limit: MaxQueryLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2*len(gridResults()) {
		t.Fatalf("job-range query returned %d records, want %d", len(res.Records), 2*len(gridResults()))
	}

	// In-scan filter that is not part of any key.
	res, err = w.Search(Query{Mode: "signature"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("mode filter matched %d records, want 0", len(res.Records))
	}

	// An absent job range answers empty without scanning.
	res, err = w.Search(Query{MinJob: 999})
	if err != nil || len(res.Records) != 0 || res.Scanned != 0 {
		t.Fatalf("absent job: %d records, %d scanned, err %v", len(res.Records), res.Scanned, err)
	}
}

func TestWarehousePaging(t *testing.T) {
	w := openTest(t)
	indexJobs(t, w, 30)
	total := 30 * len(gridResults())
	var got []Record
	q := Query{Limit: 37}
	pages := 0
	for {
		res, err := w.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Records...)
		pages++
		if res.NextToken == "" {
			break
		}
		q.PageToken = res.NextToken
		if pages > total {
			t.Fatal("paging did not terminate")
		}
	}
	if len(got) != total {
		t.Fatalf("paged scan returned %d records, want %d", len(got), total)
	}
	seen := make(map[string]bool, total)
	for _, r := range got {
		k := fmt.Sprintf("%d/%d", r.Job, r.Cell)
		if seen[k] {
			t.Fatalf("duplicate record %s across pages", k)
		}
		seen[k] = true
	}

	// A token from one plan is rejected by the other.
	res, err := w.Search(Query{Limit: 5})
	if err != nil || res.NextToken == "" {
		t.Fatalf("seed page: %v", err)
	}
	if _, err := w.Search(Query{Test: "S5", PageToken: res.NextToken}); err == nil {
		t.Fatal("cross-plan token accepted")
	}

	// A filter nothing matches stops each page at the scan cap and
	// hands back a token instead of walking the whole index.
	indexJobs(t, w, 400)
	q = Query{Mode: "signature"}
	for n := 0; ; n++ {
		res, err := w.Search(q)
		if err != nil || len(res.Records) != 0 || res.Scanned > maxScanPerQuery {
			t.Fatalf("capped page %d: %d records, %d scanned, err %v", n, len(res.Records), res.Scanned, err)
		}
		if res.NextToken == "" {
			if n == 0 {
				t.Fatal("no page stopped at the scan cap")
			}
			break
		}
		if n > 400*len(gridResults())/maxScanPerQuery {
			t.Fatal("capped paging did not terminate")
		}
		q.PageToken = res.NextToken
	}
}

func TestWarehouseRemoveJob(t *testing.T) {
	w := openTest(t)
	indexJobs(t, w, 5)
	n, err := w.RemoveJobID(JobID(3))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(gridResults()) {
		t.Fatalf("RemoveJobID dropped %d cells, want %d", n, len(gridResults()))
	}
	if w.NumJobs() != 4 {
		t.Fatalf("NumJobs = %d after remove, want 4", w.NumJobs())
	}
	res, err := w.Search(Query{MinJob: 3, MaxJob: 3})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("removed job still queryable: %d records, err %v", len(res.Records), err)
	}
	res, err = w.Search(Query{Test: "S5", Limit: MaxQueryLimit})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Job == 3 {
			t.Fatal("removed job still in the dimension postings")
		}
	}
	if n, err := w.RemoveJobID(JobID(3)); err != nil || n != 0 {
		t.Fatalf("re-remove: %d, %v", n, err)
	}
}

func TestWarehouseReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warehouse.idx")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	indexJobs(t, w, 8)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.NumJobs() != 8 {
		t.Fatalf("NumJobs after reopen = %d, want 8", w.NumJobs())
	}
	res, err := w.Search(Query{Test: "MATS+", Width: 4, Words: 16, Scheme: "twm"})
	if err != nil || len(res.Records) != 8 {
		t.Fatalf("query after reopen: %d records, err %v", len(res.Records), err)
	}
}

// seedStore journals n done jobs into a fresh jobstore.
func seedStore(t *testing.T, dir string, n int) *jobstore.Store {
	t.Helper()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		j, err := store.Create(JobID(uint64(i)), campaign.Spec{Name: "t"})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range gridResults() {
			j.Emit(r)
		}
		if err := j.Finish("done", ""); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestRebuildFromWALDeterministic(t *testing.T) {
	dir := t.TempDir()
	store := seedStore(t, filepath.Join(dir, "jobs"), 12)

	path1 := filepath.Join(dir, "a.idx")
	w1, err := RebuildFromWAL(path1, Options{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if w1.NumJobs() != 12 {
		t.Fatalf("rebuild indexed %d jobs, want 12", w1.NumJobs())
	}
	res, err := w1.Search(Query{Test: "S5", Scheme: "twm", Limit: MaxQueryLimit})
	if err != nil || len(res.Records) != 2*12 {
		t.Fatalf("query on rebuilt index: %d records, err %v", len(res.Records), err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	path2 := filepath.Join(dir, "b.idx")
	w2, err := RebuildFromWAL(path2, Options{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	b1, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two rebuilds differ: %d vs %d bytes", len(b1), len(b2))
	}
}

func TestReconcile(t *testing.T) {
	dir := t.TempDir()
	store := seedStore(t, filepath.Join(dir, "jobs"), 6)
	path := filepath.Join(dir, "warehouse.idx")
	w, err := RebuildFromWAL(path, Options{}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Drift both ways: job 2's WAL disappears (evict raced the index),
	// job 4 loses cells from the index, job 5's records differ from its
	// WAL, job 7 is journaled done but never indexed.
	if err := store.Remove(JobID(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RemoveJobID(JobID(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.IndexJob(JobID(4), gridResults()[:3]); err != nil {
		t.Fatal(err)
	}
	// Job 5 keeps its cell count but one record's counters drifted.
	drifted := gridResults()
	drifted[7].Detected--
	if _, err := w.RemoveJobID(JobID(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.IndexJob(JobID(5), drifted); err != nil {
		t.Fatal(err)
	}
	j, err := store.Create(JobID(7), campaign.Spec{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gridResults() {
		j.Emit(r)
	}
	if err := j.Finish("done", ""); err != nil {
		t.Fatal(err)
	}

	stats, err := w.Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Removed) != 1 || stats.Removed[0] != JobID(2) {
		t.Fatalf("Removed = %v, want [c2]", stats.Removed)
	}
	if fmt.Sprint(stats.Repaired) != "[c4 c5 c7]" {
		t.Fatalf("Repaired = %v, want [c4 c5 c7]", stats.Repaired)
	}

	// The index now mirrors the store exactly.
	indexed := make(map[uint64]int)
	for seq, ents := range w.jobs {
		indexed[seq] = len(ents)
	}
	want := map[uint64]int{1: 12, 3: 12, 4: 12, 5: 12, 6: 12, 7: 12}
	if len(indexed) != len(want) {
		t.Fatalf("indexed jobs = %v, want %v", indexed, want)
	}
	for seq, n := range want {
		if indexed[seq] != n {
			t.Fatalf("job %d has %d cells indexed, want %d", seq, indexed[seq], n)
		}
	}

	// A second reconcile is a no-op.
	stats, err = w.Reconcile(store)
	if err != nil || len(stats.Removed) != 0 || len(stats.Repaired) != 0 {
		t.Fatalf("second reconcile not clean: %+v, %v", stats, err)
	}
}

func TestIngesterAndErroredCells(t *testing.T) {
	w := openTest(t)
	sink := w.Ingester("c9")
	for _, r := range gridResults() {
		sink.Emit(r)
	}
	bad := testResult(99, "S5", 8, 16, "twm", "compare")
	bad.Err = "simulated failure"
	sink.Emit(bad)
	res, err := w.Search(Query{MinJob: 9, MaxJob: 9, Limit: MaxQueryLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(gridResults()) {
		t.Fatalf("ingested %d records, want %d (errored cell must be skipped)", len(res.Records), len(gridResults()))
	}
	// Unindexable ids are inert.
	w.Ingester("not-a-job").Emit(testResult(0, "S5", 8, 16, "twm", "compare"))
	if w.NumJobs() != 1 {
		t.Fatalf("NumJobs = %d, want 1", w.NumJobs())
	}
}

func TestRecordValueRoundTrip(t *testing.T) {
	rec := Record{
		Job: 42, Cell: 7,
		Dim:    campaign.Dim{Test: "March C-", Width: 8, Words: 64, Scheme: "twm", Mode: "signature"},
		Faults: 1234, Detected: 1200, TCM: 14, TCP: 10,
	}
	got, rest, err := readValue(rec.Job, rec.Cell, append(appendValue(nil, rec), 0xff))
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}
	if !bytes.Equal(rest, []byte{0xff}) {
		t.Fatalf("rest = %x, want ff", rest)
	}
	enc := appendValue(nil, rec)
	if _, _, err := readValue(1, 1, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated value accepted")
	}
}

// TestReconcileJobsMatchesReconcile runs TestReconcile's drift through
// both entry points: ReconcileJobs over one Store.Recover must report
// what Reconcile(store) reports and leave an index that saves to the
// same snapshot bytes.
func TestReconcileJobsMatchesReconcile(t *testing.T) {
	dir := t.TempDir()
	store := seedStore(t, filepath.Join(dir, "jobs"), 6)
	var ws [2]*Warehouse
	for i := range ws {
		w, err := RebuildFromWAL(filepath.Join(dir, fmt.Sprintf("w%d.idx", i)), Options{}, store)
		if err != nil {
			t.Fatal(err)
		}
		// TestReconcile's index drift: job 4 lost cells, one of job 5's
		// records drifted.
		drifted := gridResults()
		drifted[7].Detected--
		for job, results := range map[uint64][]campaign.CellResult{4: gridResults()[:3], 5: drifted} {
			if _, err := w.RemoveJobID(JobID(job)); err != nil {
				t.Fatal(err)
			}
			if err := w.IndexJob(JobID(job), results); err != nil {
				t.Fatal(err)
			}
		}
		ws[i] = w
	}
	// Its journal drift: job 2's WAL is gone, job 7 is done but was
	// never indexed.
	if err := store.Remove(JobID(2)); err != nil {
		t.Fatal(err)
	}
	j, err := store.Create(JobID(7), campaign.Spec{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gridResults() {
		j.Emit(r)
	}
	if err := j.Finish("done", ""); err != nil {
		t.Fatal(err)
	}

	want, err := ws[0].Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got := ws[1].ReconcileJobs(jobs)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(got) != "{[c2] [c4 c5 c7]}" {
		t.Fatalf("ReconcileJobs = %+v, Reconcile = %+v, want removed [c2], repaired [c4 c5 c7]", got, want)
	}
	var snaps [2][]byte
	for i, w := range ws {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = os.ReadFile(w.path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshots differ: %d vs %d bytes", len(snaps[0]), len(snaps[1]))
	}
}
