package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twmarch/internal/loadgen"
)

// proc is one daemon the benchmark spawned.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the daemon dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop kills the process and waits until it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// procUsage is a /proc reading of one process: CPU time (user+system,
// all threads) and peak resident set (VmHWM).
type procUsage struct {
	cpu    time.Duration
	hwmKiB int64
}

// readUsage sums the per-thread schedstat run times, which count in
// nanoseconds where /proc/<pid>/stat counts 10 ms ticks. The Go
// runtime keeps its threads for the life of the process, so no CPU
// time leaves the sum.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return u, fmt.Errorf("empty schedstat for %d/%s", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return u, fmt.Errorf("parse schedstat for %d/%s: %v", pid, t.Name(), err)
		}
		u.cpu += time.Duration(ns)
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			u.hwmKiB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return u, nil
}

// hostCPU reads the machine-wide CPU tick counters of /proc/stat and
// returns the ticks stolen by the hypervisor and the total, so a run can
// report how contended the host was during its window.
func hostCPU() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// fleet is the system under test: twmd, plus one twmw in cluster mode.
type fleet struct {
	twmd, twmw *proc
	// base is twmd's API base URL; workerBase the twmw metrics sidecar.
	base, workerBase string
}

func (f *fleet) stop() {
	f.twmw.stop()
	f.twmd.stop()
}

func (f *fleet) procs() []*proc {
	if f.twmw != nil {
		return []*proc{f.twmd, f.twmw}
	}
	return []*proc{f.twmd}
}

// usage sums the /proc readings of the fleet's daemons.
func (f *fleet) usage() (procUsage, error) {
	var sum procUsage
	for _, p := range f.procs() {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return sum, fmt.Errorf("%s: %v", p.name, err)
		}
		sum.cpu += u.cpu
		sum.hwmKiB += u.hwmKiB
	}
	return sum, nil
}

// startFleet spawns the workload's daemons over datadir with default
// flags and waits until they are ready: twmd answers /healthz and, in
// cluster mode, the worker shows up in /cluster/workers. It returns
// the time from the first spawn to ready.
func startFleet(ctx context.Context, w *workload, binDir, runDir, datadir string) (*fleet, time.Duration, error) {
	port, err := loadgen.FreePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	f := &fleet{base: "http://" + addr}
	args := []string{"-addr", addr, "-datadir", datadir}
	if w.cluster {
		args = append(args, "-cluster")
	}
	start := time.Now()
	if f.twmd, err = startProc("twmd", filepath.Join(binDir, "twmd"), args, filepath.Join(runDir, "twmd.log")); err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, f.twmd, f.base+"/healthz", func([]byte) bool { return true }); err != nil {
		f.stop()
		return nil, 0, err
	}
	if w.cluster {
		addrFile := filepath.Join(runDir, "twmw.addr")
		os.Remove(addrFile)
		f.twmw, err = startProc("twmw", filepath.Join(binDir, "twmw"), []string{
			"-coordinator", f.base,
			"-id", "perfbench-w1",
			"-parallel", strconv.Itoa(nproc),
			"-metrics-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
		}, filepath.Join(runDir, "twmw.log"))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		listed := func(body []byte) bool {
			var ws []struct {
				Worker string `json:"worker"`
			}
			return json.Unmarshal(body, &ws) == nil && len(ws) > 0
		}
		if err := waitReady(ctx, f.twmw, f.base+"/cluster/workers", listed); err != nil {
			f.stop()
			return nil, 0, err
		}
		setup := time.Since(start)
		raw, err := waitFile(ctx, addrFile)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.workerBase = "http://" + raw
		return f, setup, nil
	}
	return f, time.Since(start), nil
}

// readyPoll is the readiness probe interval; short against the
// few-millisecond spawn of an empty daemon, so setup_s measures the
// daemon rather than the probe.
const readyPoll = 250 * time.Microsecond

// waitReady polls url until it answers 200 with a body ok accepts.
func waitReady(ctx context.Context, p *proc, url string, ok func([]byte) bool) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		}
		if body, code, err := get(ctx, hc, url); err == nil && code == http.StatusOK && ok(body) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
	}
	return fmt.Errorf("%s not ready at %s within 60s", p.name, url)
}

func waitFile(ctx context.Context, path string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
			return strings.TrimSpace(string(raw)), nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(readyPoll):
		}
	}
	return "", fmt.Errorf("%s never appeared", path)
}

// collect forces a garbage collection in every daemon through the
// pprof heap endpoint, so each measured window starts from the same
// heap phase.
func (f *fleet) collect() error {
	for _, b := range f.bases() {
		if _, code, err := get(context.Background(), http.DefaultClient, b+"/debug/pprof/heap?gc=1"); err != nil || code != http.StatusOK {
			return fmt.Errorf("GC %s: %v (status %d)", b, err, code)
		}
	}
	return nil
}

// bases lists the HTTP bases of the daemons' observability surfaces.
func (f *fleet) bases() []string {
	if f.workerBase != "" {
		return []string{f.base, f.workerBase}
	}
	return []string{f.base}
}

// counters is one reading of the count metrics the daemons export,
// summed over the fleet.
type counters struct {
	cacheHits, cacheMisses float64
	spansStarted           float64
	gcCycles               float64
}

// readCounters scrapes /metrics and /debug/runtime of every daemon.
func (f *fleet) readCounters() (counters, error) {
	var c counters
	for _, b := range f.bases() {
		snap, err := loadgen.ScrapeProm(b + "/metrics")
		if err != nil {
			return c, err
		}
		c.cacheHits += snap.Sum("twm_engine_fault_cache_hits_total", nil)
		c.cacheMisses += snap.Sum("twm_engine_fault_cache_misses_total", nil)
		c.spansStarted += snap.Sum("twm_tracing_spans_total", map[string]string{"stage": "started"})
		body, code, err := get(context.Background(), http.DefaultClient, b+"/debug/runtime")
		if err != nil || code != http.StatusOK {
			return c, fmt.Errorf("GET %s/debug/runtime: %v (status %d)", b, err, code)
		}
		var rt struct {
			GCCycles float64 `json:"gc_cycles"`
		}
		if err := json.Unmarshal(body, &rt); err != nil {
			return c, err
		}
		c.gcCycles += rt.GCCycles
	}
	return c, nil
}

func (c counters) sub(o counters) counters {
	return counters{
		cacheHits:    c.cacheHits - o.cacheHits,
		cacheMisses:  c.cacheMisses - o.cacheMisses,
		spansStarted: c.spansStarted - o.spansStarted,
		gcCycles:     c.gcCycles - o.gcCycles,
	}
}
