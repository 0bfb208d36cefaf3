package warehouse

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"twmarch/internal/jobstore"
)

// TestWarehouseCrashHelper is the child half of TestCrashConsistency:
// it runs only when re-exec'd with the env gate, and loops over
// IndexJob, RemoveJobID and Checkpoint on the snapshot named by the
// environment until the parent SIGKILLs it, so the kill can land
// anywhere in a snapshot write.
func TestWarehouseCrashHelper(t *testing.T) {
	dir := os.Getenv("TWM_WAREHOUSE_CRASH_DIR")
	if dir == "" {
		t.Skip("not a crash-helper invocation")
	}
	store, err := jobstore.Open(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(filepath.Join(dir, "live.idx"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := store.Recover()
	jobs := onlyDone(recovered)
	if err != nil || len(jobs) == 0 {
		t.Fatalf("helper sees no jobs: %v", err)
	}
	// Every snapshot this process writes lacks the first journaled job
	// and, after the first loop, holds jobs no journal backs, so the
	// parent's reconcile has drift to repair whichever one lands.
	if _, err := w.RemoveJobID(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[1:] {
		if err := w.IndexJob(j.ID, j.Done); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ready"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1 << 20); ; seq++ {
		for _, j := range jobs {
			if err := w.IndexJob(JobID(seq), j.Done); err != nil {
				t.Fatal(err)
			}
		}
		if seq%2 == 0 {
			if _, err := w.RemoveJobID(JobID(seq - 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// reconcileAndClose opens the snapshot at path, reconciles it against
// the store and closes it, returning what the close wrote.
func reconcileAndClose(t *testing.T, path string, store *jobstore.Store) (ReconcileStats, []byte) {
	t.Helper()
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stats, err := w.Reconcile(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return stats, b
}

// pristineSnapshot rebuilds the store's index into dir and returns the
// snapshot bytes.
func pristineSnapshot(t *testing.T, dir string, store *jobstore.Store) []byte {
	t.Helper()
	path := filepath.Join(dir, "pristine.idx")
	if _, err := RebuildFromWAL(path, Options{}, store); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashConsistency SIGKILLs a process looping over index updates
// and snapshot writes, then checks the contract: Open succeeds on
// whatever the kill left, and after Reconcile, Close writes exactly
// the bytes of a pristine RebuildFromWAL — the WAL-is-truth contract,
// end to end.
func TestCrashConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	dir := t.TempDir()
	store := seedStore(t, filepath.Join(dir, "jobs"), 6)
	want := pristineSnapshot(t, dir, store)

	for round := 0; round < 3; round++ {
		os.Remove(filepath.Join(dir, "ready"))
		cmd := exec.Command(os.Args[0], "-test.run", "^TestWarehouseCrashHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "TWM_WAREHOUSE_CRASH_DIR="+dir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(filepath.Join(dir, "ready")); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("helper never became ready; output:\n%s", out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(time.Duration(5+10*round) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		stats, got := reconcileAndClose(t, filepath.Join(dir, "live.idx"), store)
		if len(stats.Repaired) == 0 && len(stats.Removed) == 0 {
			t.Fatalf("round %d: reconcile found no drift in the crashed snapshot", round)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: reconciled snapshot differs from pristine: %d vs %d bytes", round, len(got), len(want))
		}
	}
}

// TestSnapshotDamageOpensEmpty feeds Open every kind of snapshot a
// crash, a power loss or an older binary can leave: each opens as an
// empty index (a leftover temp file is ignored), and after Reconcile,
// Close writes the pristine rebuild's bytes.
func TestSnapshotDamageOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	store := seedStore(t, filepath.Join(dir, "jobs"), 6)
	pristine := pristineSnapshot(t, dir, store)
	seal := func(body []byte) []byte {
		return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	}
	flipped := bytes.Clone(pristine)
	flipped[len(flipped)/2] ^= 0x10
	// A clean file of the paged B+-tree index this one replaced (512-byte
	// pages, one job indexed), as the earlier version wrote it.
	paged, err := os.ReadFile("testdata/paged_index.idx")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		file    []byte
		tmp     []byte // written to the temp path beside the snapshot
		wantNew int    // jobs Reconcile must re-index
	}{
		{name: "truncated", file: pristine[:len(pristine)/2], wantNew: 6},
		{name: "last byte cut", file: pristine[:len(pristine)-1], wantNew: 6},
		{name: "bit flipped", file: flipped, wantNew: 6},
		{name: "empty", file: []byte{}, wantNew: 6},
		{name: "paged index file", file: paged, wantNew: 6},
		{name: "other version", file: append([]byte("TWMWIDX2"), pristine[8:]...), wantNew: 6},
		{name: "checksummed garbage", file: seal([]byte(snapshotMagic + "\x01\x05\x00")), wantNew: 6},
		{name: "leftover temp file", file: pristine, tmp: pristine[:100], wantNew: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "warehouse.idx")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.tmp != nil {
				if err := os.WriteFile(path+".tmp", tc.tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			w, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got, want := w.NumJobs(), 6-tc.wantNew; got != want {
				t.Fatalf("opened with %d jobs, want %d", got, want)
			}
			stats, got := reconcileAndClose(t, path, store)
			if len(stats.Repaired) != tc.wantNew || len(stats.Removed) != 0 {
				t.Fatalf("reconcile: %+v, want %d repaired", stats, tc.wantNew)
			}
			if !bytes.Equal(got, pristine) {
				t.Fatalf("reconciled snapshot differs from pristine: %d vs %d bytes", len(got), len(pristine))
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}
