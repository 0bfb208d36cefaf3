// Package jobstore is the durable job journal behind cmd/twmd's
// -datadir: one directory per submitted campaign holding the spec, a
// write-ahead log of completed cell results, and a terminal-state
// marker. A restarted server recovers every journaled job — terminal
// jobs rebuild their aggregate from the WAL (cmd/twmd does so on each
// read, through Load), interrupted jobs replay the finished cells and
// re-simulate only the remainder (cell results are pure functions of
// (spec, cell), so the recovered aggregate is byte-identical to an
// uninterrupted run).
//
// Layout under the store root:
//
//	<id>/spec.json       the submitted campaign.Spec (atomic rename)
//	<id>/wal.ndjson      one compact JSON CellResult per line, append-only
//	<id>/state.json      terminal marker {state, error} (atomic rename)
//	<id>/dispatch.ndjson cluster scheduling events (lease/requeue/...),
//	                     append-only; an operator-facing side log that
//	                     recovery never replays
//	<id>/trace           the job span's W3C traceparent (atomic rename),
//	                     so a restarted server resumes the same trace
//
// The WAL is written one line per syscall without fsync: a torn tail
// from a crash is detected on replay and dropped, costing only the
// re-simulation of that cell.
//
// Recover is the store's one whole-store loader, and a restarted twmd
// calls it once: the job table and the result index are both built
// from the slice it returns. It loads the job directories on a fixed
// set of runtime.GOMAXPROCS(0) goroutines, which it starts and waits
// for; each loads one directory at a time, so at most that many
// journal files are open at once, and writes the job into the slot of
// its directory entry, so the result does not depend on which worker
// loaded what. Each WAL is read through a buffer sized to the file,
// capped at 64 KiB: a restart reads one WAL per journaled job, and a
// settled job's WAL is typically about a kilobyte.
package jobstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"twmarch/internal/campaign"
)

// Store is a journal directory. Methods are safe for concurrent use;
// per-job serialization is the Journal's.
type Store struct {
	dir string
}

// Open creates the store root if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// IDs returns every job directory name in the store, including ones
// Recover would skip as unrecoverable (e.g. a crash-orphaned directory
// without a spec). Id allocators must steer clear of all of them — a
// reused id would collide with the leftover directory and silently run
// unjournaled.
func (s *Store) IDs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// validID rejects ids that could escape the store root. Server job ids
// are "c<seq>", but the store guards its own invariants.
func validID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	return nil
}

// Create journals a new job: it writes the spec and opens the cell WAL
// for appending. It fails if the job already exists.
func (s *Store) Create(id string, spec campaign.Spec) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobstore: encode spec: %v", err)
	}
	if err := atomicWrite(filepath.Join(dir, "spec.json"), append(raw, '\n')); err != nil {
		return nil, err
	}
	return openWAL(dir)
}

// Reopen returns the journal of an existing job, appending to its WAL
// — the recovery path for a job resumed after a restart. A torn tail
// left by a crash is truncated away first: appending after the
// fragment would merge two records into one malformed line and make
// everything journaled afterwards unrecoverable on later restarts.
func (s *Store) Reopen(id string) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	dir := filepath.Join(s.dir, id)
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	wal := filepath.Join(dir, "wal.ndjson")
	if valid, size, err := scanWAL(wal, nil); err == nil && valid < size {
		if err := os.Truncate(wal, valid); err != nil {
			return nil, fmt.Errorf("jobstore: truncate torn tail: %v", err)
		}
		metTornRepairs.Inc()
	}
	return openWAL(dir)
}

// Remove deletes a job's journal — the eviction path.
func (s *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(s.dir, id))
}

// Job is one recovered journal entry.
type Job struct {
	// ID is the job's directory name (the server's job id).
	ID string
	// Spec is the submitted campaign spec.
	Spec campaign.Spec
	// Done holds the journaled cell results, in WAL (completion) order.
	Done []campaign.CellResult
	// State is the terminal marker ("done", "failed", "canceled"), or
	// empty for a job that was interrupted mid-run and should resume.
	State string
	// Err is the terminal marker's error message.
	Err string
	// TraceParent is the job span's journaled W3C traceparent, empty
	// when the job predates tracing or the file was lost.
	TraceParent string
}

// terminalMarker is the state.json schema.
type terminalMarker struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Load reads one journaled job — spec, WAL replay, terminal marker —
// without touching the rest of the store. It fails when the spec is
// missing or unreadable (a crash between Mkdir and the spec rename
// leaves nothing recoverable); a malformed or torn WAL tail drops the
// affected line and everything after it. Recover is the whole-store
// loader built on it, and the one that start-up and the result
// warehouse's rebuild and reconcile read through; Load serves a read
// of one known job.
func (s *Store) Load(id string) (Job, error) {
	if err := validID(id); err != nil {
		return Job{}, err
	}
	dir := filepath.Join(s.dir, id)
	raw, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return Job{}, fmt.Errorf("jobstore: %v", err)
	}
	var spec campaign.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return Job{}, fmt.Errorf("jobstore: %s: parse spec: %v", id, err)
	}
	j := Job{ID: id, Spec: spec, Done: readWAL(filepath.Join(dir, "wal.ndjson"))}
	if raw, err := os.ReadFile(filepath.Join(dir, "state.json")); err == nil {
		var m terminalMarker
		if err := json.Unmarshal(raw, &m); err == nil {
			j.State, j.Err = m.State, m.Error
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "trace")); err == nil {
		j.TraceParent = strings.TrimSpace(string(raw))
	}
	return j, nil
}

// WriteTrace journals the job span's traceparent so recovery can
// resume the job on the same trace. Written once at submission;
// atomic like the other markers.
func (s *Store) WriteTrace(id, traceparent string) error {
	if err := validID(id); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, id, "trace"), []byte(traceparent+"\n"))
}

// Recover loads every journaled job, sorted by id (numeric-suffix
// aware: c2 before c10). Directories without a readable spec are
// skipped — a crash between Mkdir and the spec rename leaves nothing
// recoverable. A malformed or torn WAL tail drops the affected line
// and everything after it; those cells simply re-simulate. The
// directories load in parallel (see the package doc); every
// goroutine has exited when Recover returns.
func (s *Store) Recover() ([]Job, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	// loaded[i] is entries[i]'s job; a slot left with an empty ID (Load
	// never returns one) is a skipped entry.
	loaded := make([]Job, len(entries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(entries)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) {
					return
				}
				if e := entries[i]; e.IsDir() {
					if j, err := s.Load(e.Name()); err == nil {
						loaded[i] = j
					}
				}
			}
		}()
	}
	wg.Wait()
	jobs := loaded[:0]
	for _, j := range loaded {
		if j.ID == "" {
			continue
		}
		metRecoveredJobs.Inc()
		metRecoveredCells.Add(float64(len(j.Done)))
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if len(jobs[a].ID) != len(jobs[b].ID) {
			return len(jobs[a].ID) < len(jobs[b].ID)
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs, nil
}

// readWAL parses cell results up to the first torn or malformed line.
// The WAL is append-only, so everything before a torn tail is intact.
func readWAL(path string) []campaign.CellResult {
	var out []campaign.CellResult
	scanWAL(path, func(r campaign.CellResult) { out = append(out, r) })
	return out
}

// scanWAL walks the WAL's valid prefix — complete, newline-terminated
// lines that unmarshal — calling visit (when non-nil) per record, and
// returns the prefix length in bytes alongside the file size. A line
// without its terminating newline is a torn tail even if it happens to
// parse: appending after it would corrupt the record boundary.
func scanWAL(path string, visit func(campaign.CellResult)) (valid, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	// Size the reader to the file (see the package doc); a file that
	// grows after the Stat still reads whole, through more refills.
	bufSize := int64(64 * 1024)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
		bufSize = min(bufSize, size)
	}
	rd := bufio.NewReaderSize(f, int(bufSize))
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return valid, size, nil // EOF: any unterminated remainder is torn
		}
		var r campaign.CellResult
		if json.Unmarshal(line, &r) != nil {
			return valid, size, nil
		}
		valid += int64(len(line))
		if visit != nil {
			visit(r)
		}
	}
}

// Journal is one job's open write-ahead log. It implements
// campaign.Sink: plugged into Engine.Stream it journals every
// completed cell as it lands. Append errors don't stop the campaign —
// the first one is retained for Err and later results are dropped, so
// a full disk degrades to re-simulation after the next restart rather
// than a failed job.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	dir string
	err error
	// df is the dispatch side log, opened lazily on the first event so
	// non-cluster jobs never create the file.
	df    *os.File
	dfErr error
}

func openWAL(dir string) (*Journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	return &Journal{f: f, dir: dir}, nil
}

// Emit appends one cell result to the WAL (campaign.Sink).
func (j *Journal) Emit(r campaign.CellResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return
	}
	raw, err := json.Marshal(r)
	if err != nil {
		j.err = fmt.Errorf("jobstore: encode cell %d: %v", r.Index, err)
		metAppendErrors.Inc()
		return
	}
	// One write syscall per line keeps torn writes to the tail, which
	// replay detects and drops.
	if _, err := j.f.Write(append(raw, '\n')); err != nil {
		j.err = fmt.Errorf("jobstore: append cell %d: %v", r.Index, err)
		metAppendErrors.Inc()
		return
	}
	metWALAppends.Inc()
}

// Dispatch appends one cluster scheduling event — any JSON-marshalable
// value; cmd/twmd passes cluster.Event — to the job's dispatch side
// log (<id>/dispatch.ndjson). The log is pure observability: recovery
// never replays it, so append failures are swallowed after the first
// (retained for Err) and a full disk costs the event trail, not the
// job.
func (j *Journal) Dispatch(ev any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The j.f guard mirrors Emit and doubles as the closed check: a
	// straggler event arriving after Finish/Close (lease revocations
	// race the collector) must not reopen the side log and leak the fd.
	if j.dfErr != nil || j.f == nil {
		return
	}
	if j.df == nil {
		f, err := os.OpenFile(filepath.Join(j.dir, "dispatch.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			j.dfErr = fmt.Errorf("jobstore: %v", err)
			metAppendErrors.Inc()
			return
		}
		j.df = f
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		j.dfErr = fmt.Errorf("jobstore: encode dispatch event: %v", err)
		metAppendErrors.Inc()
		return
	}
	if _, err := j.df.Write(append(raw, '\n')); err != nil {
		j.dfErr = fmt.Errorf("jobstore: append dispatch event: %v", err)
		metAppendErrors.Inc()
		return
	}
	metDispatchEvents.Inc()
}

// DispatchLog reads a job's dispatch side log as raw NDJSON lines
// (nil when the job never dispatched). Lines are returned verbatim so
// callers decode into their own event schema; a torn tail line is
// dropped.
func (s *Store) DispatchLog(id string) ([]json.RawMessage, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, id, "dispatch.ndjson"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("jobstore: %v", err)
	}
	var out []json.RawMessage
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := raw[:nl]
		raw = raw[nl+1:]
		if json.Valid(line) {
			out = append(out, json.RawMessage(append([]byte(nil), line...)))
		}
	}
	return out, nil
}

// Err returns the first append failure, if any — a WAL failure wins
// over a dispatch-log one, since only the WAL affects recovery.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.dfErr
}

// Finish writes the terminal-state marker and closes the WAL. A job
// with a marker is restored verbatim on recovery instead of resumed.
func (j *Journal) Finish(state, errMsg string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, err := json.Marshal(terminalMarker{State: state, Error: errMsg})
	if err != nil {
		return fmt.Errorf("jobstore: encode marker: %v", err)
	}
	if err := atomicWrite(filepath.Join(j.dir, "state.json"), append(raw, '\n')); err != nil {
		return err
	}
	return j.closeLocked()
}

// Close closes the WAL without a terminal marker, leaving the job
// interrupted — on recovery it resumes from the journaled cells. This
// is the graceful-shutdown path.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closeLocked()
}

func (j *Journal) closeLocked() error {
	if j.df != nil {
		j.df.Close() // best-effort, like the appends
		j.df = nil
	}
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	return nil
}

// atomicWrite writes via a temp file and rename so readers (and
// recovery after a crash) never observe a torn file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: %v", err)
	}
	return nil
}
