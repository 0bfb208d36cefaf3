package main

import (
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
	"twmarch/internal/warehouse"
)

// warehouseFile is the index file name inside -datadir.
const warehouseFile = "warehouse.idx"

// openWarehouse opens the result warehouse next to the job journals.
// A missing, torn or outdated snapshot opens as an empty index, which
// the startup reconcile fills from the WALs, the source of truth.
// Returns nil (and the query surface answers 503) only when the
// snapshot file cannot be read at all.
func openWarehouse(datadir string, logger *slog.Logger) *warehouse.Warehouse {
	path := filepath.Join(datadir, warehouseFile)
	wh, err := warehouse.Open(path, warehouse.Options{})
	if err != nil {
		logger.Error("open warehouse failed, queries disabled", "path", path, "err", err)
		return nil
	}
	return wh
}

// reconcileWarehouse audits the index against the recovered journal
// set and logs what it repaired — the startup step that fills an index
// whose snapshot was missing or stale, and catches drift from a crash
// between a WAL write and its index insert (or an evict that died
// between removing the journal and the index entries). Runs before
// any recovered job resumes, so repairs never race live ingest.
func (s *server) reconcileWarehouse(jobs []jobstore.Job) {
	if s.wh == nil {
		return
	}
	stats := s.wh.ReconcileJobs(jobs)
	s.log.Info("warehouse reconciled", "jobs", s.wh.NumJobs(),
		"repaired", len(stats.Repaired), "removed", len(stats.Removed))
}

// indexSettled folds a job's terminal state into the warehouse: a
// done job's full result set backfills (covering recovery-seeded
// cells that never streamed through the ingest sink), any other
// terminal state drops the job's entries.
func (j *job) indexSettled(state string, agg *campaign.Aggregate) {
	if j.wh == nil {
		return
	}
	var err error
	if state == StateDone && agg != nil {
		err = j.wh.IndexJob(j.id, agg.Cells)
	} else {
		_, err = j.wh.RemoveJobID(j.id)
	}
	if err != nil {
		j.logger().Warn("warehouse index update failed; reconcile will repair", "err", err)
	}
}

// queryRecord is the wire form of one warehouse record.
type queryRecord struct {
	ID       string  `json:"id"`
	Cell     uint32  `json:"cell"`
	Test     string  `json:"test"`
	Width    int     `json:"width"`
	Words    int     `json:"words"`
	Scheme   string  `json:"scheme"`
	Mode     string  `json:"mode"`
	Faults   int     `json:"faults"`
	Detected int     `json:"detected"`
	Coverage float64 `json:"coverage"`
	TCM      int     `json:"tcm"`
	TCP      int     `json:"tcp"`
}

// queryPage is the wire form of one GET /campaigns/query response.
type queryPage struct {
	Results []queryRecord `json:"results"`
	// NextToken pages the scan; pass it back as ?page_token=.
	NextToken string `json:"next_token,omitempty"`
	// Scanned counts index entries examined for this page.
	Scanned int `json:"scanned"`
}

// parseJobParam accepts a job bound as either a twmd id ("c17") or a
// bare sequence number ("17").
func parseJobParam(v string) (uint64, bool) {
	if seq, ok := warehouse.JobSeq(v); ok {
		return seq, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// query serves GET /campaigns/query: dimension- and job-range-
// filtered reads over the warehouse index. The handler never touches
// a WAL, so its latency is independent of how many cells the matching
// jobs journaled.
func (s *server) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.wh == nil {
		writeErr(w, http.StatusServiceUnavailable, "result warehouse disabled (start with -datadir)")
		return
	}
	p := r.URL.Query()
	q := warehouse.Query{
		Test:      p.Get("test"),
		Scheme:    p.Get("scheme"),
		Mode:      p.Get("mode"),
		PageToken: p.Get("page_token"),
	}
	for name, dst := range map[string]*int{"width": &q.Width, "words": &q.Words, "limit": &q.Limit} {
		if v := p.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeErr(w, http.StatusBadRequest, "bad %s %q", name, v)
				return
			}
			*dst = n
		}
	}
	for name, dst := range map[string]*uint64{"min_job": &q.MinJob, "max_job": &q.MaxJob} {
		if v := p.Get(name); v != "" {
			seq, ok := parseJobParam(v)
			if !ok {
				writeErr(w, http.StatusBadRequest, "bad %s %q", name, v)
				return
			}
			*dst = seq
		}
	}
	res, err := s.wh.Search(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	page := queryPage{Results: make([]queryRecord, 0, len(res.Records)), NextToken: res.NextToken, Scanned: res.Scanned}
	for _, rec := range res.Records {
		qr := queryRecord{
			ID:       warehouse.JobID(rec.Job),
			Cell:     rec.Cell,
			Test:     rec.Dim.Test,
			Width:    rec.Dim.Width,
			Words:    rec.Dim.Words,
			Scheme:   rec.Dim.Scheme,
			Mode:     rec.Dim.Mode,
			Faults:   rec.Faults,
			Detected: rec.Detected,
			TCM:      rec.TCM,
			TCP:      rec.TCP,
		}
		if rec.Faults > 0 {
			qr.Coverage = float64(rec.Detected) / float64(rec.Faults)
		}
		page.Results = append(page.Results, qr)
	}
	writeJSON(w, http.StatusOK, page)
}
