// Package warehouse is the indexed campaign-result warehouse behind
// cmd/twmd's jobstore: an in-memory index over completed campaign
// cell results, so dimension-filtered range queries ("coverage of S5
// across all word widths, jobs 9000..10000") walk only the matching
// records instead of replaying WALs.
//
// The NDJSON job journals (internal/jobstore) stay the source of
// truth. The index is a derived, disposable view: every record is
// reproducible from the WALs, RebuildFromWAL builds the whole index
// from them, and Reconcile repairs any drift between the two.
//
// Two structures hold every record:
//
//	jobs      each job's records in cell order, and the job
//	          sequences ascending: the primary plan walks these in
//	          (job, cell) order
//	postings  for each encoded (test, width, words, scheme) prefix of
//	          the key codec (Key), that tuple's records sorted by
//	          (job, cell), and the prefixes ascending: the dimension
//	          plan walks the prefixes a query pins and binary-searches
//	          the job range inside each
//
// The index persists as one snapshot file (see snapshot.go), written
// by Close, Checkpoint and RebuildFromWAL through a temporary file and
// a rename, and never fsynced. Open treats a missing, torn, foreign or
// outdated snapshot as an empty index; the startup reconcile
// (ReconcileJobs) against the WALs is the one repair path.
package warehouse

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"sort"
	"sync"

	"twmarch/internal/campaign"
)

// Options is accepted by Open and RebuildFromWAL for compatibility;
// the in-memory index has nothing to tune.
type Options struct{}

// CacheStats is kept for callers that report a page-cache hit rate.
// The in-memory index has no page cache, so both counters read zero.
type CacheStats struct {
	// Hits and Misses count page reads served from cache and from
	// disk: always zero.
	Hits   uint64
	Misses uint64
}

// entry is one indexed cell. It holds no pointers (the dimension tuple
// is an index into Warehouse.dims), so the index adds nothing to the
// garbage collector's mark work however many records it holds.
type entry struct {
	job  uint64
	cell uint32
	dim  uint32
	// faults, detected, tcm and tcp mirror the Record counters.
	faults, detected, tcm, tcp int
}

// before and after order entries by (job, cell).
func (e entry) before(job uint64, cell uint32) bool {
	return e.job < job || e.job == job && e.cell < cell
}

func (e entry) after(job uint64, cell uint32) bool {
	return e.job > job || e.job == job && e.cell > cell
}

// postings is one (test, width, words, scheme) tuple's records.
type postings struct {
	// prefix is the tuple's encoded key prefix (Key.Encode up to and
	// including Scheme).
	prefix string
	// dim is the tuple; its Mode is empty.
	dim  campaign.Dim
	ents []entry
}

// Warehouse is the open index. All methods are safe for concurrent
// use; they serialize on one mutex.
type Warehouse struct {
	mu   sync.Mutex
	path string
	// dims interns each distinct dimension tuple an entry refers to,
	// and dimList names the postings each one belongs to.
	dims    []campaign.Dim
	dimIDs  map[campaign.Dim]uint32
	dimList []int
	// jobs holds each job's entries in cell order; seqs lists the
	// indexed job sequences ascending.
	jobs map[uint64][]entry
	seqs []uint64
	// lists holds the postings, listOf finds them by prefix, and order
	// lists their indices by ascending prefix.
	lists  []postings
	listOf map[string]int
	order  []int
}

func newWarehouse(path string) *Warehouse {
	return &Warehouse{
		path:   path,
		dimIDs: make(map[campaign.Dim]uint32),
		jobs:   make(map[uint64][]entry),
		listOf: make(map[string]int),
	}
}

// Open loads the snapshot at path. A missing file opens as an empty
// index, and so does one that is torn, foreign (the paged files of
// earlier versions included) or of another format version: the index
// is derived data, and a reconcile restores it from the WALs. Only a
// file that exists but cannot be read is an error.
func Open(path string, _ Options) (*Warehouse, error) {
	w := newWarehouse(path)
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("warehouse: %v", err)
	default:
		if err := w.loadSnapshot(b); err != nil {
			w = newWarehouse(path)
			metRebuilds.Inc()
		}
	}
	metJobs.Set(float64(len(w.seqs)))
	return w, nil
}

// Checkpoint writes the snapshot. cmd/twmd leaves this to Close; the
// WALs, not the snapshot, carry every result across a crash.
func (w *Warehouse) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeSnapshotLocked()
}

// Close writes the snapshot. The warehouse holds no open file, so
// there is nothing else to release.
func (w *Warehouse) Close() error { return w.Checkpoint() }

// CacheStats returns zero counters: the index has no page cache.
func (w *Warehouse) CacheStats() CacheStats { return CacheStats{} }

// NumJobs returns the distinct jobs currently indexed.
func (w *Warehouse) NumJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seqs)
}

// record expands an entry into its Record.
func (w *Warehouse) record(e entry) Record {
	return Record{Job: e.job, Cell: e.cell, Dim: w.dims[e.dim],
		Faults: e.faults, Detected: e.detected, TCM: e.tcm, TCP: e.tcp}
}

// dimID interns a dimension tuple, creating its postings on first
// sight.
func (w *Warehouse) dimID(d campaign.Dim) uint32 {
	if id, ok := w.dimIDs[d]; ok {
		return id
	}
	id := uint32(len(w.dims))
	w.dims = append(w.dims, d)
	w.dimIDs[d] = id
	k := Key{Test: d.Test, Width: uint32(d.Width), Words: uint32(d.Words), Scheme: d.Scheme}
	prefix := k.tuplePrefix()
	li, ok := w.listOf[prefix]
	if !ok {
		li = len(w.lists)
		tuple := d
		tuple.Mode = ""
		w.lists = append(w.lists, postings{prefix: prefix, dim: tuple})
		w.listOf[prefix] = li
		at := sort.Search(len(w.order), func(i int) bool { return w.lists[w.order[i]].prefix > prefix })
		w.order = slices.Insert(w.order, at, li)
	}
	w.dimList = append(w.dimList, li)
	return id
}

// searchCell finds the position of cell in one job's entries.
func searchCell(ents []entry, cell uint32) (int, bool) {
	i := sort.Search(len(ents), func(i int) bool { return ents[i].cell >= cell })
	return i, i < len(ents) && ents[i].cell == cell
}

// searchPosting finds the first posting at or after (job, cell).
func searchPosting(ents []entry, job uint64, cell uint32) int {
	return sort.Search(len(ents), func(i int) bool { return !ents[i].before(job, cell) })
}

// insertLocked indexes one record. A (job, cell) already indexed
// keeps its first record, so stream ingest, settle backfill and
// journal replay are idempotent. Callers hold w.mu.
func (w *Warehouse) insertLocked(r Record) {
	ents, known := w.jobs[r.Job]
	i, found := searchCell(ents, r.Cell)
	if found {
		return
	}
	e := entry{job: r.Job, cell: r.Cell, dim: w.dimID(r.Dim),
		faults: r.Faults, detected: r.Detected, tcm: r.TCM, tcp: r.TCP}
	w.jobs[r.Job] = slices.Insert(ents, i, e)
	if !known {
		at, _ := slices.BinarySearch(w.seqs, r.Job)
		w.seqs = slices.Insert(w.seqs, at, r.Job)
		metJobs.Set(float64(len(w.seqs)))
	}
	l := &w.lists[w.dimList[e.dim]]
	l.ents = slices.Insert(l.ents, searchPosting(l.ents, e.job, e.cell), e)
	metInserts.Inc()
}

// insertResultLocked indexes one completed cell result of the job,
// if it is indexable.
func (w *Warehouse) insertResultLocked(job uint64, r campaign.CellResult) {
	if indexable(r) {
		w.insertLocked(recordOf(job, r))
	}
}

// removeLocked drops every record of the job and returns how many
// there were. Callers hold w.mu.
func (w *Warehouse) removeLocked(job uint64) int {
	ents, ok := w.jobs[job]
	if !ok {
		return 0
	}
	for _, e := range ents {
		l := &w.lists[w.dimList[e.dim]]
		i := searchPosting(l.ents, e.job, e.cell)
		l.ents = slices.Delete(l.ents, i, i+1)
	}
	delete(w.jobs, job)
	at, _ := slices.BinarySearch(w.seqs, job)
	w.seqs = slices.Delete(w.seqs, at, at+1)
	metDeletes.Add(float64(len(ents)))
	metJobs.Set(float64(len(w.seqs)))
	return len(ents)
}
