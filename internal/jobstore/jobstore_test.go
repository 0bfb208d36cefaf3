package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"twmarch/internal/campaign"
)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:    "journal",
		Tests:   []string{"MATS"},
		Widths:  []int{2},
		Words:   []int{2, 3},
		Classes: []string{"SAF"},
		Seed:    9,
	}
}

// results simulates the spec's cells serially, for journal fixtures.
func results(t *testing.T, spec campaign.Spec) []campaign.CellResult {
	t.Helper()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]campaign.CellResult, 0, len(cells))
	for _, c := range cells {
		out = append(out, campaign.RunCell(spec, c))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res := results(t, spec)

	j, err := st.Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[:2] {
		j.Emit(r)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.ID != "c1" || got.State != "" {
		t.Fatalf("recovered job %q state %q, want c1 interrupted", got.ID, got.State)
	}
	if got.Spec.Name != spec.Name || len(got.Spec.Tests) != 1 {
		t.Fatalf("spec did not round-trip: %+v", got.Spec)
	}
	if len(got.Done) != 2 {
		t.Fatalf("recovered %d cells, want 2", len(got.Done))
	}
	for i, r := range got.Done {
		if r.Index != res[i].Index || r.Faults != res[i].Faults || r.Detected != res[i].Detected {
			t.Fatalf("cell %d did not round-trip: got %+v want %+v", i, r, res[i])
		}
	}

	// Reopen appends; the replay sees old and new lines.
	j2, err := st.Reopen("c1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[2:] {
		j2.Emit(r)
	}
	if err := j2.Finish("done", ""); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res) || jobs[0].State != "done" {
		t.Fatalf("after finish: %d cells, state %q", len(jobs[0].Done), jobs[0].State)
	}
}

func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res := results(t, spec)
	j, err := st.Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		j.Emit(r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final line as a crash mid-write would.
	wal := filepath.Join(dir, "c1", "wal.ndjson")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Done) != len(res)-1 {
		t.Fatalf("torn WAL recovered %d cells, want %d", len(jobs[0].Done), len(res)-1)
	}

	// Reopen truncates the torn fragment before appending — otherwise
	// the next record would merge into it and everything journaled
	// after this restart would be unrecoverable on the one after.
	j2, err := st.Reopen("c1")
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(res[len(res)-1])
	if err := j2.Finish("done", ""); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res) || jobs[0].State != "done" {
		t.Fatalf("after reopen-and-finish: %d cells (want %d), state %q",
			len(jobs[0].Done), len(res), jobs[0].State)
	}

	// A valid final line missing only its newline is also a torn tail.
	raw, err = os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs[0].Done) != len(res)-1 {
		t.Fatalf("newline-less tail counted: %d cells, want %d", len(jobs[0].Done), len(res)-1)
	}
}

func TestRecoverSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory without a spec (crash between Mkdir and rename), a
	// directory with a malformed spec, and a stray file.
	if err := os.Mkdir(filepath.Join(dir, "c7"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "c8"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "c8", "spec.json"), []byte("{"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("not a job"), 0o644)

	if _, err := st.Create("c2", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c10", testSpec()); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "c2" || jobs[1].ID != "c10" {
		t.Fatalf("recovered %+v, want [c2 c10] in numeric order", jobs)
	}
}

func TestRemoveAndIDValidation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c1", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("c1", testSpec()); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := st.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("removed job still recovered: %+v", jobs)
	}
	for _, id := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := st.Create(id, testSpec()); err == nil {
			t.Errorf("id %q accepted", id)
		}
		if err := st.Remove(id); err == nil {
			t.Errorf("remove %q accepted", id)
		}
	}
	if _, err := st.Reopen("nope"); err == nil {
		t.Error("reopen of missing job accepted")
	}
	if _, err := Open(""); err == nil {
		t.Error("empty store dir accepted")
	}
}

// TestDispatchLog pins the cluster side log: events append as NDJSON,
// survive a reopen, a torn tail line is dropped, recovery never
// replays them, and a job that never dispatched reads back nil.
func TestDispatchLog(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create("c1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Kind string `json:"kind"`
		Cell int    `json:"cell"`
	}
	j.Dispatch(ev{Kind: "lease", Cell: 0})
	j.Dispatch(ev{Kind: "complete", Cell: 0})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Events append across a reopen, like the WAL.
	j2, err := st.Reopen("c1")
	if err != nil {
		t.Fatal(err)
	}
	j2.Dispatch(ev{Kind: "lease", Cell: 1})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail (crash mid-append) is dropped on read.
	f, err := os.OpenFile(filepath.Join(st.Dir(), "c1", "dispatch.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"requ`)
	f.Close()

	lines, err := st.DispatchLog("c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("dispatch log has %d lines, want 3: %s", len(lines), lines)
	}
	var last ev
	if err := json.Unmarshal(lines[2], &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "lease" || last.Cell != 1 {
		t.Fatalf("last event %+v", last)
	}

	// Recovery ignores the side log entirely.
	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Done) != 0 {
		t.Fatalf("recovery affected by dispatch log: %+v", jobs)
	}

	// A job without a dispatch log reads back nil.
	if _, err := st.Create("c2", testSpec()); err != nil {
		t.Fatal(err)
	}
	lines, err = st.DispatchLog("c2")
	if err != nil || lines != nil {
		t.Fatalf("undispatched job log = %v, %v; want nil, nil", lines, err)
	}
	if _, err := st.DispatchLog("../escape"); err == nil {
		t.Error("invalid id accepted")
	}
}

// TestRecoverParallelMatchesSerial pins the parallel loader to the
// serial one it replaced: over a store that mixes every case Recover
// handles, its result deep-equals a Load loop over the directory
// listing under the same sort, and the recovery counters move once
// per loaded job.
func TestRecoverParallelMatchesSerial(t *testing.T) {
	// Several workers even on a one-core runner, so the slots fill out
	// of order.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Words = []int{2, 3, 4, 5}
	res := results(t, spec)
	markers := []string{"done", "failed", "canceled", ""}
	for i := 1; i <= 240; i++ {
		id := fmt.Sprintf("c%d", i)
		if i%10 == 0 {
			id = fmt.Sprintf("job%d", i) // not twmd-shaped, still a job
		}
		j, err := st.Create(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res[:i%(len(res)+1)] {
			j.Emit(r)
		}
		if i%3 == 0 {
			if err := st.WriteTrace(id, fmt.Sprintf("00-%032x-%016x-01", i, i)); err != nil {
				t.Fatal(err)
			}
		}
		if m := markers[i%len(markers)]; m != "" {
			err = j.Finish(m, "")
		} else {
			err = j.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(dir, id, "wal.ndjson")
		raw, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(raw) > 10 && i%7 == 0:
			raw = raw[:len(raw)-10] // torn mid-record
		case len(raw) > 0 && i%11 == 0:
			raw = raw[:len(raw)-1] // intact record, newline lost
		default:
			continue
		}
		if err := os.WriteFile(wal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A spec-less directory, a malformed spec and a stray file.
	if err := os.Mkdir(filepath.Join(dir, "c500"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "c501"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c501", "spec.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a job"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []Job
	cells := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if j, err := st.Load(e.Name()); err == nil {
			want = append(want, j)
			cells += len(j.Done)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if len(want[a].ID) != len(want[b].ID) {
			return len(want[a].ID) < len(want[b].ID)
		}
		return want[a].ID < want[b].ID
	})
	if len(want) != 240 {
		t.Fatalf("serial load found %d jobs, want 240", len(want))
	}
	covered := make(map[string]bool)
	for _, j := range want {
		covered["state "+j.State] = true
		covered[fmt.Sprint("trace ", j.TraceParent != "")] = true
	}
	if len(covered) != len(markers)+2 {
		t.Fatalf("fixture covers only %v", covered)
	}

	jobs0, cells0 := metRecoveredJobs.Value(), metRecoveredCells.Value()
	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("job %d of %d differs from the serial load (got %d jobs)", i, len(want), len(got))
			}
		}
		t.Fatalf("recovered %d jobs, serial load %d", len(got), len(want))
	}
	if d := metRecoveredJobs.Value() - jobs0; d != float64(len(want)) {
		t.Errorf("recovered-jobs counter moved %v, want %d", d, len(want))
	}
	if d := metRecoveredCells.Value() - cells0; d != float64(cells) {
		t.Errorf("recovered-cells counter moved %v, want %d", d, cells)
	}
}
