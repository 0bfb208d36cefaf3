package warehouse

import (
	"encoding/binary"
	"fmt"

	"twmarch/internal/campaign"
)

// Record is one indexed campaign cell result: the dimension tuple
// plus the headline counters a query consumer needs. The warehouse
// answers queries entirely from records, never from the WALs.
type Record struct {
	// Job is the numeric job sequence (see JobSeq) and Cell the cell's
	// grid index within it.
	Job  uint64
	Cell uint32
	// Dim is the cell's grid-dimension tuple.
	Dim campaign.Dim
	// Faults and Detected count the cell's fault population and
	// detections; TCM and TCP are the generated test and prediction
	// lengths in operations per address.
	Faults   int
	Detected int
	TCM      int
	TCP      int
}

// Key returns the record's composite dimension key.
func (r Record) Key() Key {
	return Key{
		Test:   r.Dim.Test,
		Width:  uint32(r.Dim.Width),
		Words:  uint32(r.Dim.Words),
		Scheme: r.Dim.Scheme,
		Job:    r.Job,
		Cell:   r.Cell,
	}
}

// appendLP appends a length-prefixed string (uvarint length).
func appendLP(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readLP decodes one appendLP string.
func readLP(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("warehouse: truncated string in record")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// appendValue appends the record's non-key payload: every dimension
// and counter, so a snapshot entry needs only (job, cell) besides.
func appendValue(dst []byte, r Record) []byte {
	dst = appendLP(dst, r.Dim.Test)
	dst = binary.AppendUvarint(dst, uint64(r.Dim.Width))
	dst = binary.AppendUvarint(dst, uint64(r.Dim.Words))
	dst = appendLP(dst, r.Dim.Scheme)
	dst = appendLP(dst, r.Dim.Mode)
	for _, n := range [4]int{r.Faults, r.Detected, r.TCM, r.TCP} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// readValue parses one appendValue payload from the front of b and
// returns the rest.
func readValue(job uint64, cell uint32, b []byte) (Record, []byte, error) {
	r := Record{Job: job, Cell: cell}
	var err error
	if r.Dim.Test, b, err = readLP(b); err != nil {
		return Record{}, nil, err
	}
	if b, err = readInts(b, &r.Dim.Width, &r.Dim.Words); err != nil {
		return Record{}, nil, err
	}
	if r.Dim.Scheme, b, err = readLP(b); err != nil {
		return Record{}, nil, err
	}
	if r.Dim.Mode, b, err = readLP(b); err != nil {
		return Record{}, nil, err
	}
	if b, err = readInts(b, &r.Faults, &r.Detected, &r.TCM, &r.TCP); err != nil {
		return Record{}, nil, err
	}
	return r, b, nil
}

// readInts decodes one uvarint into each destination in turn.
func readInts(b []byte, dst ...*int) ([]byte, error) {
	for _, p := range dst {
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, fmt.Errorf("warehouse: truncated int in record")
		}
		*p = int(n)
		b = b[sz:]
	}
	return b, nil
}

// recordOf builds the Record for one completed cell result.
func recordOf(job uint64, r campaign.CellResult) Record {
	return Record{
		Job:      job,
		Cell:     uint32(r.Index),
		Dim:      r.Cell.Dim(),
		Faults:   r.Faults,
		Detected: r.Detected,
		TCM:      r.TCM,
		TCP:      r.TCP,
	}
}
