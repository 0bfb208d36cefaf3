package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"twmarch/internal/campaign"
)

// hub is one job's result event broadcaster: the engine emits each
// completed CellResult into it (campaign.Sink), and any number of
// /events subscribers replay the backlog and then follow the live
// tail. Each result is marshaled to its NDJSON line once, on Emit —
// not per subscriber — and lines are retained for the life of the job
// so a subscriber attaching late, or after a restart when a resumed
// job's hub is re-seeded from the journal, still sees every cell
// exactly once. A recovered terminal job has no hub: each /events
// request seeds a closed one from the journal (replayHub).
type hub struct {
	mu    sync.Mutex
	lines [][]byte
	done  bool
	// wake is closed (and replaced) on every append, and closed for
	// good when the stream ends.
	wake chan struct{}
}

func newHub() *hub { return &hub{wake: make(chan struct{})} }

// Emit appends one result and wakes subscribers (campaign.Sink).
func (h *hub) Emit(r campaign.CellResult) {
	line, err := json.Marshal(r)
	if err != nil {
		return // cannot happen for a CellResult; drop rather than wedge
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.lines = append(h.lines, append(line, '\n'))
	close(h.wake)
	h.wake = make(chan struct{})
}

// seed preloads journal-recovered results without waking anyone; it
// runs before any subscriber can attach.
func (h *hub) seed(rs []campaign.CellResult) {
	for _, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			continue
		}
		h.mu.Lock()
		h.lines = append(h.lines, append(line, '\n'))
		h.mu.Unlock()
	}
}

// close ends the stream: subscribers drain the backlog and return.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	close(h.wake)
}

// from returns the event lines at positions ≥ i, whether the stream
// has ended, and the channel to wait on for more. The returned slice
// is capped so later appends never alias into it.
func (h *hub) from(i int) ([][]byte, bool, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var batch [][]byte
	if i < len(h.lines) {
		batch = h.lines[i:len(h.lines):len(h.lines)]
	}
	return batch, h.done, h.wake
}

// replayHub returns a closed hub holding a recovered terminal job's
// events: the cells recovery kept, in WAL order, which is the order
// the job's hub saw them before the restart. A job with nothing
// journaled answers from its header alone.
func (s *server) replayHub(j *job) (*hub, error) {
	h := newHub()
	if j.tally.Cells > 0 {
		_, cells, err := s.journaled(j)
		if err != nil {
			return nil, err
		}
		h.seed(cells)
	}
	h.close()
	return h, nil
}

// events streams a job's per-cell results as NDJSON: the backlog
// first, then each new result as it lands, until the job reaches a
// terminal state or the client disconnects. Each line is one compact
// campaign.CellResult.
func (s *server) events(w http.ResponseWriter, r *http.Request, j *job) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	h := j.hub
	if h == nil {
		var err error
		if h, err = s.replayHub(j); err != nil {
			s.journalReadFailed(w, j, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	// The server's global WriteTimeout stamps one deadline at request
	// start; a long-lived stream must keep rolling it forward — both
	// when writing and while idling between cells, or a subscriber to a
	// slow grid would be severed mid-job and mistake the truncation for
	// a clean end of stream.
	const deadlineSlack = 2 * time.Minute
	idle := time.NewTimer(deadlineSlack / 4)
	defer idle.Stop()
	i := 0
	for {
		batch, done, wake := h.from(i)
		for _, line := range batch {
			rc.SetWriteDeadline(time.Now().Add(deadlineSlack))
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		i += len(batch)
		if fl != nil {
			fl.Flush()
		}
		if done && len(batch) == 0 {
			return
		}
		if done {
			continue // drain whatever landed between from() and close
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(deadlineSlack / 4)
		select {
		case <-wake:
		case <-idle.C:
			// Idle keep-alive: extend the write deadline and loop.
			rc.SetWriteDeadline(time.Now().Add(deadlineSlack))
		case <-r.Context().Done():
			return
		}
	}
}
