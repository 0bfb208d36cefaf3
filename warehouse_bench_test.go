// Warehouse read-path and start-up harness: the benchmarks behind the
// PERFORMANCE.md "read path" and "start-up" numbers and the
// scripts/benchdiff gate entries BenchmarkWarehouseQuery /
// BenchmarkWarehouseIngest / BenchmarkWarehouseWALReplay /
// BenchmarkStartupRecover. All but the ingest one run against a shared
// corpus of corpusJobs journaled campaigns (built once per test
// binary, removed by TestMain), so the query/replay pair measures the
// same question — "every result for one grid cell across the whole
// job history" — answered by the in-memory index versus by replaying
// every WAL the way a store without the index would have to.
// TestWarehouseQuerySpeedup turns that ratio into the checked-in
// acceptance bound.
package twmarch_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
	"twmarch/internal/warehouse"
)

const (
	// corpusJobs is the journaled-job population the read-path numbers
	// are quoted over (the acceptance bound requires >= 10k).
	corpusJobs = 10_000
	// corpusCellsPerJob is each job's synthesized grid size.
	corpusCellsPerJob = 4
)

// corpusTests is the per-cell test name: cell c of every job carries
// corpusTests[c], so pinning one test selects exactly one cell per job.
var corpusTests = []string{"MATS", "March X", "March C-", "March U"}

// corpusCell synthesizes cell c of job seq. Counters are derived, not
// simulated — the harness measures the index and the WAL scan, and a
// real fault-injection campaign per cell would bury both under
// simulation time.
func corpusCell(seq uint64, c int) campaign.CellResult {
	return campaign.CellResult{
		Cell: campaign.Cell{
			Index:  c,
			Test:   corpusTests[c],
			Width:  2 + 2*(c%2),
			Words:  16,
			Scheme: []string{"twm", "scheme1"}[c%2],
			Mode:   "compare",
			Seed:   int64(seq)*31 + int64(c),
		},
		Faults:   128,
		Detected: 96 + int(seq%32),
		TCM:      14,
		TCP:      6,
	}
}

// corpusQuery is the dimension-filtered range query both paths answer:
// all four dimensions pinned to cell 2's tuple, job range unbounded —
// one matching cell in every job of the corpus.
func corpusQuery() warehouse.Query {
	return warehouse.Query{
		Test:   "March C-",
		Width:  2,
		Words:  16,
		Scheme: "twm",
		Limit:  warehouse.MaxQueryLimit,
	}
}

// whCorpus is the lazily built shared corpus. Benchmarks and the
// speedup test share one build because journaling 10k jobs dominates
// any single measurement; TestMain removes the directory after the
// run.
var whCorpus struct {
	once  sync.Once
	dir   string
	store *jobstore.Store
	wh    *warehouse.Warehouse
	err   error
}

func warehouseCorpus(tb testing.TB) (*jobstore.Store, *warehouse.Warehouse) {
	tb.Helper()
	whCorpus.once.Do(func() { whCorpus.err = buildWarehouseCorpus() })
	if whCorpus.err != nil {
		tb.Fatal(whCorpus.err)
	}
	return whCorpus.store, whCorpus.wh
}

func buildWarehouseCorpus() error {
	dir, err := os.MkdirTemp("", "twmarch-warehouse-bench-")
	if err != nil {
		return err
	}
	whCorpus.dir = dir
	store, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	spec := campaign.Spec{
		Name:    "warehouse-bench",
		Tests:   corpusTests,
		Widths:  []int{2, 4},
		Words:   []int{16},
		Classes: []string{"SAF"},
		Seed:    1,
	}
	for seq := uint64(1); seq <= corpusJobs; seq++ {
		j, err := store.Create(warehouse.JobID(seq), spec)
		if err != nil {
			return err
		}
		for c := 0; c < corpusCellsPerJob; c++ {
			j.Emit(corpusCell(seq, c))
		}
		if err := j.Finish("done", ""); err != nil {
			return err
		}
	}
	// The WALs are the corpus; the index is derived from them exactly
	// the way twmd derives it after a crash.
	wh, err := warehouse.RebuildFromWAL(filepath.Join(dir, "bench.idx"), warehouse.Options{}, store)
	if err != nil {
		return err
	}
	whCorpus.store, whCorpus.wh = store, wh
	return nil
}

// TestMain only exists to remove the shared corpus directory; every
// other fixture in this package uses per-test temp dirs.
func TestMain(m *testing.M) {
	code := m.Run()
	if whCorpus.wh != nil {
		whCorpus.wh.Close()
	}
	if whCorpus.dir != "" {
		os.RemoveAll(whCorpus.dir)
	}
	os.Exit(code)
}

// indexedQuery pages the corpus query through Search to completion and
// returns the match count.
func indexedQuery(wh *warehouse.Warehouse) (records int, err error) {
	q := corpusQuery()
	for {
		res, err := wh.Search(q)
		if err != nil {
			return 0, err
		}
		records += len(res.Records)
		if res.NextToken == "" {
			return records, nil
		}
		q.PageToken = res.NextToken
	}
}

// replayQuery answers the corpus query the pre-index way: load every
// journaled job (spec parse + full WAL decode) and filter its cells.
func replayQuery(store *jobstore.Store) (int, error) {
	ids, err := store.IDs()
	if err != nil {
		return 0, err
	}
	matched := 0
	for _, id := range ids {
		j, err := store.Load(id)
		if err != nil {
			return 0, err
		}
		if j.State != "done" {
			continue
		}
		for _, r := range j.Done {
			if r.Err == "" && r.Test == "March C-" && r.Width == 2 &&
				r.Words == 16 && r.Scheme == "twm" {
				matched++
			}
		}
	}
	return matched, nil
}

// BenchmarkWarehouseQuery measures the index-backed read path: one
// dimension-filtered range query over the full corpus, paged to
// completion through the postings (per-op = the whole 10k-record
// answer, not one page).
func BenchmarkWarehouseQuery(b *testing.B) {
	_, wh := warehouseCorpus(b)
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		records, err = indexedQuery(wh)
		if err != nil {
			b.Fatal(err)
		}
		if records != corpusJobs {
			b.Fatalf("query matched %d records, want %d", records, corpusJobs)
		}
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkWarehouseWALReplay answers the identical query by WAL
// replay — the cost every read paid before the warehouse existed, and
// the baseline TestWarehouseQuerySpeedup holds the index against. It
// is gated like the other two so the comparison stays honest: a
// jobstore change that quietly slowed (or sped up) replay would skew
// the speedup headline without failing anything.
func BenchmarkWarehouseWALReplay(b *testing.B) {
	store, _ := warehouseCorpus(b)
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		records, err = replayQuery(store)
		if err != nil {
			b.Fatal(err)
		}
		if records != corpusJobs {
			b.Fatalf("replay matched %d records, want %d", records, corpusJobs)
		}
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkStartupRecover measures the journal work every twmd restart
// over the corpus does before it serves: one Store.Recover of every
// journal, then ReconcileJobs of the built index against the recovered
// jobs, which finds no drift. The job-table build that follows in twmd
// is not included.
func BenchmarkStartupRecover(b *testing.B) {
	store, wh := warehouseCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := store.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) != corpusJobs {
			b.Fatalf("recovered %d jobs, want %d", len(jobs), corpusJobs)
		}
		if st := wh.ReconcileJobs(jobs); len(st.Removed)+len(st.Repaired) != 0 {
			b.Fatalf("reconcile of the built index found drift: %+v", st)
		}
	}
}

// BenchmarkWarehouseIngest measures the write path: one cell per op
// through a job's Ingester sink into a fresh index — the cost the
// streaming sink adds to every simulated cell. The snapshot write at
// Close is excluded: twmd writes it once, at shutdown.
func BenchmarkWarehouseIngest(b *testing.B) {
	wh, err := warehouse.Open(filepath.Join(b.TempDir(), "ingest.idx"), warehouse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var sink campaign.Sink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, c := uint64(i/corpusCellsPerJob)+1, i%corpusCellsPerJob
		if c == 0 {
			sink = wh.Ingester(warehouse.JobID(seq))
		}
		sink.Emit(corpusCell(seq, c))
	}
}

// TestWarehouseQuerySpeedup is the read-path acceptance bound: over
// >= 10k journaled jobs, the index-backed dimension-filtered range
// query must beat WAL replay by at least 50x. The two paths must also
// agree on the answer, so the speedup is measured on equal work.
func TestWarehouseQuerySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 10k-job corpus benchmark in -short mode")
	}
	store, wh := warehouseCorpus(t)

	// Warm pass: verifies both paths agree before either is timed.
	idxRecords, err := indexedQuery(wh)
	if err != nil {
		t.Fatal(err)
	}
	walRecords, err := replayQuery(store)
	if err != nil {
		t.Fatal(err)
	}
	if idxRecords != corpusJobs || walRecords != corpusJobs {
		t.Fatalf("paths disagree: index %d, replay %d, want %d", idxRecords, walRecords, corpusJobs)
	}

	// Best-of-three on each side filters scheduler noise without
	// letting one lucky run decide.
	best := func(f func() error) time.Duration {
		bestDur := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < bestDur {
				bestDur = d
			}
		}
		return bestDur
	}
	idxDur := best(func() error { _, err := indexedQuery(wh); return err })
	walDur := best(func() error { _, err := replayQuery(store); return err })

	speedup := float64(walDur) / float64(idxDur)
	t.Logf("index %v vs WAL replay %v over %d jobs: %.0fx", idxDur, walDur, corpusJobs, speedup)
	if speedup < 50 {
		t.Errorf("index query %v is only %.1fx faster than WAL replay %v, want >= 50x",
			idxDur, speedup, walDur)
	}
}
