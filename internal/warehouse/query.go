package warehouse

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"twmarch/internal/campaign"
)

// DefaultQueryLimit is the page size a Query gets when it asks for
// none, and MaxQueryLimit the most records one page may return.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// maxScanPerQuery bounds how many index entries one Search call may
// examine. A highly selective in-scan filter (say Mode over a huge
// job range) could otherwise walk the whole index inside one request;
// hitting the cap returns a continuation token instead, keeping
// per-request latency bounded.
const maxScanPerQuery = 4096

// Query selects indexed records by grid dimensions and job range.
// Zero-valued fields match everything: empty strings and zero ints
// mean "any", MaxJob 0 means "no upper bound".
//
// The planner uses the dimension postings when Test is set: it walks
// the (test, width, words, scheme) tuples under the prefix the query
// pins, skips tuples a further set dimension rules out, and
// binary-searches the job range inside each. Otherwise it walks the
// jobs by sequence from MinJob. Mode, which is never part of a key,
// is filtered per record in both plans.
type Query struct {
	// Test, Scheme and Mode filter their dimension exactly; empty
	// matches any.
	Test   string
	Scheme string
	Mode   string
	// Width and Words filter the memory geometry; 0 matches any.
	Width int
	Words int
	// MinJob and MaxJob bound the job sequence, inclusive. MaxJob 0
	// means unbounded.
	MinJob uint64
	MaxJob uint64
	// Limit caps records per page (DefaultQueryLimit when 0, clamped
	// to MaxQueryLimit).
	Limit int
	// PageToken resumes a prior Result at its NextToken.
	PageToken string
}

// limit returns the effective page size.
func (q Query) limit() int {
	if q.Limit <= 0 {
		return DefaultQueryLimit
	}
	if q.Limit > MaxQueryLimit {
		return MaxQueryLimit
	}
	return q.Limit
}

// maxJob returns the effective inclusive upper bound.
func (q Query) maxJob() uint64 {
	if q.MaxJob == 0 {
		return ^uint64(0)
	}
	return q.MaxJob
}

// matchesTuple applies the Test, Width, Words and Scheme filters.
func (q Query) matchesTuple(d campaign.Dim) bool {
	return (q.Test == "" || d.Test == q.Test) &&
		(q.Width == 0 || d.Width == q.Width) &&
		(q.Words == 0 || d.Words == q.Words) &&
		(q.Scheme == "" || d.Scheme == q.Scheme)
}

// Result is one page of a Search.
type Result struct {
	// Records are the matches, in plan order: dimension-key order for
	// the dimension plan, (job, cell) order for the primary plan.
	Records []Record
	// NextToken resumes the scan where this page stopped; empty when
	// the scan is exhausted.
	NextToken string
	// Scanned counts index entries examined to build the page — the
	// observable gap between a tight index plan and a filter-heavy one.
	Scanned int
}

// Plan markers, recorded in page tokens so a continuation resumes the
// same scan it left.
const (
	planDim     = 'd'
	planPrimary = 'p'
)

// plan returns which structure the query walks.
func (q Query) plan() byte {
	if q.Test != "" {
		return planDim
	}
	return planPrimary
}

// dimPrefix builds the dimension plan's key prefix: each dimension set
// consecutively in key order extends it.
func (q Query) dimPrefix() string {
	prefix := appendEscaped(nil, q.Test)
	if q.Width == 0 {
		return string(prefix)
	}
	prefix = binary.BigEndian.AppendUint32(prefix, uint32(q.Width))
	if q.Words == 0 {
		return string(prefix)
	}
	prefix = binary.BigEndian.AppendUint32(prefix, uint32(q.Words))
	if q.Scheme == "" {
		return string(prefix)
	}
	return string(appendEscaped(prefix, q.Scheme))
}

// encodeToken renders a continuation token: the plan marker plus the
// last examined key, base64 for URL safety. The key is the record's
// dimension key (Key.Encode) on the dimension plan and its primary
// key (priKey) on the primary plan.
func encodeToken(plan byte, lastKey []byte) string {
	raw := make([]byte, 0, 1+len(lastKey))
	raw = append(raw, plan)
	raw = append(raw, lastKey...)
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodeToken parses a PageToken, checks it belongs to this query's
// plan, and returns the key of the last record examined, which the
// page resumes strictly after.
func decodeToken(tok string, plan byte) (Key, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil || len(raw) < 1 {
		return Key{}, fmt.Errorf("warehouse: malformed page token")
	}
	if raw[0] != plan {
		return Key{}, fmt.Errorf("warehouse: page token does not match this query")
	}
	if plan == planPrimary {
		if len(raw) != 13 {
			return Key{}, fmt.Errorf("warehouse: malformed page token")
		}
		return Key{Job: binary.BigEndian.Uint64(raw[1:]), Cell: binary.BigEndian.Uint32(raw[9:])}, nil
	}
	k, err := DecodeKey(raw[1:])
	if err != nil {
		return Key{}, fmt.Errorf("warehouse: malformed page token")
	}
	return k, nil
}

// page accumulates one Search page.
type page struct {
	q     Query
	limit int
	res   Result
	last  Record
	full  bool
}

// visit examines one entry of the walk; false ends the page.
func (p *page) visit(r Record) bool {
	p.res.Scanned++
	p.last = r
	if p.q.matchesTuple(r.Dim) && (p.q.Mode == "" || r.Dim.Mode == p.q.Mode) {
		p.res.Records = append(p.res.Records, r)
	}
	p.full = len(p.res.Records) >= p.limit || p.res.Scanned >= maxScanPerQuery
	return !p.full
}

// Search runs one page of the query against the index. It never reads
// a WAL, walks only the tuples and job range the query selects, and
// bounds its work by the page limit and maxScanPerQuery.
func (w *Warehouse) Search(q Query) (Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	metQueries.Inc()
	if q.MinJob > q.maxJob() {
		return Result{}, nil
	}
	plan := q.plan()
	var after *Key
	if q.PageToken != "" {
		k, err := decodeToken(q.PageToken, plan)
		if err != nil {
			return Result{}, err
		}
		after = &k
	}
	p := &page{q: q, limit: q.limit()}
	if plan == planDim {
		w.walkDim(p, after)
	} else {
		w.walkPrimary(p, after)
	}
	if p.full {
		last := priKey(p.last.Job, p.last.Cell)
		if plan == planDim {
			last = p.last.Key().Encode(nil)
		}
		p.res.NextToken = encodeToken(plan, last)
	}
	metQueryResults.Add(float64(len(p.res.Records)))
	return p.res, nil
}

// walkDim visits, in key order, the entries of every tuple under the
// query's prefix that its other dimensions admit, within the job range
// and strictly after the resume key.
func (w *Warehouse) walkDim(p *page, after *Key) {
	prefix := p.q.dimPrefix()
	from, resume := prefix, ""
	if after != nil {
		if resume = after.tuplePrefix(); resume > from {
			from = resume
		}
	}
	at := sort.Search(len(w.order), func(i int) bool { return w.lists[w.order[i]].prefix >= from })
	for _, li := range w.order[at:] {
		l := &w.lists[li]
		if !strings.HasPrefix(l.prefix, prefix) {
			return
		}
		if !p.q.matchesTuple(l.dim) {
			continue
		}
		ents := l.ents[searchPosting(l.ents, p.q.MinJob, 0):]
		if l.prefix == resume {
			ents = ents[sort.Search(len(ents), func(i int) bool { return ents[i].after(after.Job, after.Cell) }):]
		}
		for _, e := range ents {
			if e.job > p.q.maxJob() || !p.visit(w.record(e)) {
				break
			}
		}
		if p.full {
			return
		}
	}
}

// walkPrimary visits, in (job, cell) order, every entry within the job
// range and strictly after the resume key.
func (w *Warehouse) walkPrimary(p *page, after *Key) {
	from := p.q.MinJob
	if after != nil {
		from = max(from, after.Job)
	}
	at := sort.Search(len(w.seqs), func(i int) bool { return w.seqs[i] >= from })
	for _, seq := range w.seqs[at:] {
		if seq > p.q.maxJob() {
			return
		}
		ents := w.jobs[seq]
		if after != nil && seq == after.Job {
			ents = ents[sort.Search(len(ents), func(i int) bool { return ents[i].cell > after.Cell }):]
		}
		for _, e := range ents {
			if !p.visit(w.record(e)) {
				return
			}
		}
	}
}
