package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
	"twmarch/internal/warehouse"
)

// The query_mix corpus: corpusJobs settled jobs of four cells each,
// simulated by the real engine and journaled and indexed through the
// public jobstore and warehouse APIs — the shape of the repository's
// warehouse benchmarks. Its seed is fixed, so one build serves every
// run in a checkout and every run restarts twmd over the same history;
// the run seed drives the writer's campaigns and the reader's filters.
const (
	corpusJobs    = 10_000
	corpusSeed    = 1
	corpusVersion = "corpus-v1"
)

var corpusTests = []string{"MATS", "March X", "March C-", "March U"}

// corpusRec is one indexed cell as the corpus manifest records it.
type corpusRec struct {
	Test     string `json:"test"`
	Width    int    `json:"width"`
	Words    int    `json:"words"`
	Scheme   string `json:"scheme"`
	Mode     string `json:"mode"`
	Faults   int    `json:"faults"`
	Detected int    `json:"detected"`
	TCM      int    `json:"tcm"`
	TCP      int    `json:"tcp"`
}

type corpus struct {
	// data is the pristine datadir: job journals plus warehouse.idx.
	data string
	// jobs[seq-1] holds job seq's cells in cell order.
	jobs [][]corpusRec
}

// corpusSpec is one corpus job: two tests × one width × one size ×
// both schemes, SAF only.
func corpusSpec(r *rand.Rand) campaign.Spec {
	p := r.Perm(len(corpusTests))
	return campaign.Spec{
		Name:    "perfbench-corpus",
		Tests:   []string{corpusTests[p[0]], corpusTests[p[1]]},
		Widths:  []int{2 << r.Intn(2)},
		Words:   []int{8 << r.Intn(2)},
		Schemes: []string{campaign.SchemeTWM, campaign.SchemeOne},
		Modes:   []string{campaign.ModeCompare},
		Classes: []string{"SAF"},
		Seed:    r.Int63(),
	}
}

// loadCorpus returns the corpus under buildDir, building it first when
// this checkout has none.
func loadCorpus(buildDir string) (*corpus, error) {
	dir := filepath.Join(buildDir, corpusVersion)
	c := &corpus{data: filepath.Join(dir, "data")}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err == nil {
		if err := json.Unmarshal(raw, &c.jobs); err != nil {
			return nil, fmt.Errorf("corpus manifest: %v", err)
		}
		return c, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	start := time.Now()
	jobs, err := buildCorpus(filepath.Join(tmp, "data"))
	if err != nil {
		return nil, fmt.Errorf("build corpus: %v", err)
	}
	raw, err = json.Marshal(jobs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	fmt.Printf("built query corpus: %d jobs in %.1fs\n", corpusJobs, time.Since(start).Seconds())
	c.jobs = jobs
	return c, nil
}

func buildCorpus(data string) ([][]corpusRec, error) {
	store, err := jobstore.Open(data)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(corpusSeed))
	specs := make([]campaign.Spec, corpusJobs)
	for i := range specs {
		specs[i] = corpusSpec(r)
	}
	jobs := make([][]corpusRec, corpusJobs)
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := campaign.Engine{Workers: 1}
			for i := w; i < corpusJobs; i += nproc {
				if jobs[i], errs[w] = corpusJob(eng, store, i+1, specs[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The index is derived from the WALs the way twmd derives it after
	// a crash; the rebuild is deterministic.
	wh, err := warehouse.RebuildFromWAL(filepath.Join(data, "warehouse.idx"), warehouse.Options{}, store)
	if err != nil {
		return nil, err
	}
	return jobs, wh.Close()
}

// corpusJob simulates and journals one corpus job.
func corpusJob(eng campaign.Engine, store *jobstore.Store, seq int, spec campaign.Spec) ([]corpusRec, error) {
	j, err := store.Create(warehouse.JobID(uint64(seq)), spec)
	if err != nil {
		return nil, err
	}
	agg, err := eng.Stream(context.Background(), spec, &campaign.Progress{}, nil, j)
	if err != nil {
		return nil, err
	}
	if err := j.Finish("done", ""); err != nil {
		return nil, err
	}
	recs := make([]corpusRec, len(agg.Cells))
	for i, c := range agg.Cells {
		if c.Err != "" {
			return nil, fmt.Errorf("job %d cell %d: %s", seq, i, c.Err)
		}
		recs[i] = corpusRec{Test: c.Test, Width: c.Width, Words: c.Words, Scheme: c.Scheme, Mode: c.Mode,
			Faults: c.Faults, Detected: c.Detected, TCM: c.TCM, TCP: c.TCP}
	}
	return recs, nil
}

// workingCopy makes a private datadir over the corpus for one run. Job
// journals are hard-linked: twmd only reads a settled job's files, and
// the writer's own jobs get fresh directories. The index file is
// copied, since twmd writes to it.
func (c *corpus) workingCopy(dst string) error {
	entries, err := os.ReadDir(c.data)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		src := filepath.Join(c.data, e.Name())
		if !e.IsDir() {
			if err := copyFile(src, filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		files, err := os.ReadDir(src)
		if err != nil {
			return err
		}
		if err := os.Mkdir(filepath.Join(dst, e.Name()), 0o755); err != nil {
			return err
		}
		for _, f := range files {
			if err := os.Link(filepath.Join(src, f.Name()), filepath.Join(dst, e.Name(), f.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// readerQueries returns n seeded corpus filters, mixing the index's two
// scan plans: dimension-prefix scans (test pinned) and job-range scans
// of the primary tree. Every filter stays inside the corpus job range,
// so the writer's own jobs never match.
func readerQueries(seed int64, n int) []url.Values {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]url.Values, n)
	for i := range out {
		q := url.Values{"limit": {"100"}}
		switch i % 3 {
		case 0: // ~250 matches over 1000 jobs, full dimension prefix
			lo := 1 + r.Intn(corpusJobs-999)
			q.Set("test", corpusTests[r.Intn(len(corpusTests))])
			q.Set("width", strconv.Itoa(2<<r.Intn(2)))
			q.Set("scheme", []string{campaign.SchemeTWM, campaign.SchemeOne}[r.Intn(2)])
			q.Set("min_job", strconv.Itoa(lo))
			q.Set("max_job", strconv.Itoa(lo+999))
		case 1: // ~200 matches over 200 jobs, test prefix then filtered
			lo := 1 + r.Intn(corpusJobs-199)
			q.Set("test", corpusTests[r.Intn(len(corpusTests))])
			q.Set("words", strconv.Itoa(8<<r.Intn(2)))
			q.Set("min_job", strconv.Itoa(lo))
			q.Set("max_job", strconv.Itoa(lo+199))
		default: // 200 matches over 50 jobs, primary range scan
			lo := 1 + r.Intn(corpusJobs-49)
			q.Set("mode", campaign.ModeCompare)
			q.Set("min_job", strconv.Itoa(lo))
			q.Set("max_job", strconv.Itoa(lo+49))
		}
		out[i] = q
	}
	return out
}

// cloneQuery copies q so paging can set page_token on the copy.
func cloneQuery(q url.Values) url.Values {
	out := make(url.Values, len(q))
	for k, v := range q {
		out[k] = v
	}
	return out
}

// answered is one reader query and every record it was served.
type answered struct {
	q    url.Values
	recs []queryRecord
}

// readsPer3Campaigns paces the reader by the writer's progress: two
// queries (two to three pages each) come due per three settled writer
// campaigns, so every run does the same reads beside the same writes
// whatever the daemon's speed.
const readsPer3Campaigns = 2

// runReader issues n seeded corpus queries on one connection, each
// paged to completion. Query i comes due when the writer has settled
// 3i/2 campaigns (progress delivers one time per settled campaign); a
// query that starts late is timed from when it came due, and the
// report prints the worst lateness.
func (d *loadGen) runReader(ctx context.Context, qs []url.Values, n int, progress <-chan time.Time) []answered {
	hc := newConnClient()
	defer hc.CloseIdleConnections()
	var out []answered
	var late time.Duration
	defer func() {
		fmt.Printf("reader: %d queries, latest start %v behind schedule\n", len(out), late.Round(time.Microsecond))
	}()
	settled, due := 0, time.Now()
	for i := 0; i < n; i++ {
		for settled < 3*i/readsPer3Campaigns {
			select {
			case due = <-progress:
				settled++
			case <-ctx.Done():
				return out
			}
		}
		late = max(late, time.Since(due))
		recs, ok := d.query(ctx, hc, cloneQuery(qs[i%len(qs)]), "query_ms", due)
		if ok {
			out = append(out, answered{q: qs[i%len(qs)], recs: recs})
		}
	}
	return out
}

// verifyAnswer checks one reader answer against the corpus: every
// record matches the filter and the corpus cell it names, and the
// answer holds exactly the matching cells.
func (c *corpus) verifyAnswer(a answered) error {
	atoi := func(k string) int { n, _ := strconv.Atoi(a.q.Get(k)); return n }
	lo, hi := atoi("min_job"), atoi("max_job")
	match := func(r corpusRec) bool {
		return (a.q.Get("test") == "" || r.Test == a.q.Get("test")) &&
			(a.q.Get("scheme") == "" || r.Scheme == a.q.Get("scheme")) &&
			(a.q.Get("mode") == "" || r.Mode == a.q.Get("mode")) &&
			(atoi("width") == 0 || r.Width == atoi("width")) &&
			(atoi("words") == 0 || r.Words == atoi("words"))
	}
	want := 0
	for seq := lo; seq <= hi; seq++ {
		for _, r := range c.jobs[seq-1] {
			if match(r) {
				want++
			}
		}
	}
	if len(a.recs) != want {
		return fmt.Errorf("query %s: %d records, corpus has %d", a.q.Encode(), len(a.recs), want)
	}
	seen := make(map[[2]int]bool, len(a.recs))
	for _, got := range a.recs {
		seq, ok := warehouse.JobSeq(got.ID)
		if !ok || int(seq) < lo || int(seq) > hi || got.Cell < 0 || got.Cell >= len(c.jobs[seq-1]) || seen[[2]int{int(seq), got.Cell}] {
			return fmt.Errorf("query %s: record %s/%d outside the filter or repeated", a.q.Encode(), got.ID, got.Cell)
		}
		seen[[2]int{int(seq), got.Cell}] = true
		r := c.jobs[seq-1][got.Cell]
		if !match(r) || r != (corpusRec{got.Test, got.Width, got.Words, got.Scheme, got.Mode, got.Faults, got.Detected, got.TCM, got.TCP}) {
			return fmt.Errorf("query %s: record %s/%d differs from the corpus", a.q.Encode(), got.ID, got.Cell)
		}
	}
	return nil
}
