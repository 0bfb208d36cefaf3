package warehouse

import (
	"slices"
	"sort"

	"twmarch/internal/campaign"
	"twmarch/internal/jobstore"
)

// indexable reports whether a cell result belongs in the index:
// errored cells carry no dimensions worth querying.
func indexable(r campaign.CellResult) bool {
	return r.Err == "" && r.Index >= 0 && r.Width >= 0 && r.Words >= 0
}

// validResults canonicalizes a job's journaled cell results: the
// indexable ones sorted by cell index, and of duplicate indices (a WAL
// replayed over a resumed run can journal a cell twice) the first
// occurrence, which is also the one insertion keeps. ReconcileJobs holds
// the index to exactly this set.
func validResults(results []campaign.CellResult) []campaign.CellResult {
	out := make([]campaign.CellResult, 0, len(results))
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		if !indexable(r) || seen[r.Index] {
			continue
		}
		seen[r.Index] = true
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// IndexJob indexes every valid journaled result of one job — the
// settle-time backfill that covers cells a recovery-seeded run never
// streamed through a Sink. Cells already indexed keep their record,
// so re-indexing a job is a no-op. Ids that are not twmd-shaped
// ("c<seq>") are silently not indexable.
func (w *Warehouse) IndexJob(id string, results []campaign.CellResult) error {
	seq, ok := JobSeq(id)
	if !ok {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range results {
		w.insertResultLocked(seq, r)
	}
	return nil
}

// RemoveJobID drops a job's records by twmd job id — the evict path —
// and returns how many cells it dropped. Unindexable ids are a no-op.
func (w *Warehouse) RemoveJobID(id string) (int, error) {
	seq, ok := JobSeq(id)
	if !ok {
		return 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.removeLocked(seq), nil
}

// Ingester returns a campaign.Sink that indexes each completed cell
// of the job as it streams out of the engine, so a finished job's
// results are queryable the moment it settles without a backfill
// scan.
func (w *Warehouse) Ingester(id string) campaign.Sink {
	seq, ok := JobSeq(id)
	if !ok {
		return campaign.SinkFunc(func(campaign.CellResult) {})
	}
	return campaign.SinkFunc(func(r campaign.CellResult) {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.insertResultLocked(seq, r)
	})
}

// RebuildFromWAL builds a fresh index at path from the jobstore's
// journals, loaded through Store.Recover, writes its snapshot, and
// returns it. Only terminally done jobs are indexed, and the snapshot
// depends on the records alone, so two rebuilds of the same store
// write byte-identical files.
func RebuildFromWAL(path string, _ Options, store *jobstore.Store) (*Warehouse, error) {
	jobs, err := store.Recover()
	if err != nil {
		return nil, err
	}
	w := newWarehouse(path)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, j := range onlyDone(jobs) {
		seq, _ := JobSeq(j.ID)
		for _, r := range j.Done {
			w.insertResultLocked(seq, r)
		}
	}
	if err := w.writeSnapshotLocked(); err != nil {
		return nil, err
	}
	metRebuilds.Inc()
	return w, nil
}

// onlyDone picks the terminally done, indexable ("c<seq>") jobs out of
// a recovered job list, in sequence order, so the index fills from its
// low end up.
func onlyDone(jobs []jobstore.Job) []*jobstore.Job {
	var out []*jobstore.Job
	for i := range jobs {
		if _, ok := JobSeq(jobs[i].ID); ok && jobs[i].State == "done" {
			out = append(out, &jobs[i])
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		sa, _ := JobSeq(out[a].ID)
		sb, _ := JobSeq(out[b].ID)
		return sa < sb
	})
	return out
}

// ReconcileStats reports what a reconcile changed.
type ReconcileStats struct {
	// Removed lists jobs dropped from the index: their WAL is gone or
	// no longer terminally done (an evict or crash raced the index).
	Removed []string
	// Repaired lists jobs whose indexed cell set drifted from the WAL
	// and were re-indexed from it.
	Repaired []string
}

// Reconcile is ReconcileJobs over the store's journals, loaded through
// Store.Recover. A caller that has already recovered the store passes
// its jobs to ReconcileJobs instead of reading every journal again.
func (w *Warehouse) Reconcile(store *jobstore.Store) (ReconcileStats, error) {
	jobs, err := store.Recover()
	if err != nil {
		return ReconcileStats{}, err
	}
	return w.ReconcileJobs(jobs), nil
}

// ReconcileJobs audits the index against jobs, the whole store as
// Store.Recover returns it, and repairs drift in both directions:
// indexed jobs without a terminally done WAL are removed, and done
// WALs whose records the index does not hold exactly are re-indexed
// from the WAL. It is the one repair path for a snapshot that was
// missing, discarded, or stale at Open. cmd/twmd runs it at startup,
// on the jobs its one recovery pass loaded, before any resumed run
// begins mutating either side.
func (w *Warehouse) ReconcileJobs(jobs []jobstore.Job) ReconcileStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var stats ReconcileStats
	done := make(map[uint64]bool, len(jobs))
	for _, j := range onlyDone(jobs) {
		seq, _ := JobSeq(j.ID)
		done[seq] = true
		want := validResults(j.Done)
		if w.holdsLocked(seq, want) {
			continue
		}
		dropped := w.removeLocked(seq)
		for _, r := range want {
			w.insertResultLocked(seq, r)
		}
		switch {
		case len(want) > 0:
			stats.Repaired = append(stats.Repaired, j.ID)
			metReconcileRepaired.Inc()
		case dropped > 0:
			stats.Removed = append(stats.Removed, j.ID)
			metReconcileRemoved.Inc()
		}
	}
	for _, seq := range slices.Clone(w.seqs) {
		if !done[seq] {
			w.removeLocked(seq)
			stats.Removed = append(stats.Removed, JobID(seq))
			metReconcileRemoved.Inc()
		}
	}
	sort.Strings(stats.Removed)
	sort.Strings(stats.Repaired)
	return stats
}

// holdsLocked reports whether the index holds exactly the job's
// canonical results.
func (w *Warehouse) holdsLocked(seq uint64, want []campaign.CellResult) bool {
	ents := w.jobs[seq]
	if len(ents) != len(want) {
		return false
	}
	for i, e := range ents {
		if w.record(e) != recordOf(seq, want[i]) {
			return false
		}
	}
	return true
}
