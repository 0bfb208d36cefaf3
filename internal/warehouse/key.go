package warehouse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
)

// Key is the composite dimension key the warehouse orders campaign
// cell results by: the grid dimensions first (march test, word width,
// memory size, scheme), then the job sequence and the cell index to
// make the key unique. Encode is order-preserving — bytes.Compare over
// encoded keys equals Compare over the tuples — so the postings, kept
// by encoded tuple prefix, serve dimension-range scans like "test=S5,
// every width, jobs 9000..10000" in key order, and a page token is
// the encoded key of the last record a page examined.
//
// Mode is deliberately not part of the key: the issue's query shapes
// filter by grid dimensions and job ranges, and folding mode into the
// scan filter keeps keys shorter. It travels in the record value.
type Key struct {
	// Test is the catalog march-test name.
	Test string
	// Width and Words give the memory geometry.
	Width uint32
	Words uint32
	// Scheme names the transformation ("twm", "scheme1").
	Scheme string
	// Job is the numeric job sequence (JobSeq of the twmd job id).
	Job uint64
	// Cell is the cell's grid index within its job.
	Cell uint32
}

// appendEscaped appends an order-preserving encoding of s: each 0x00
// byte is escaped to 0x00 0x01 and the value is terminated by
// 0x00 0x00. Because the escape byte (0x01) is greater than the
// terminator's second byte (0x00), a proper prefix still sorts before
// its extensions and lexicographic order over the raw strings is
// preserved over the encodings.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0x01)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x00)
}

// readEscaped decodes one appendEscaped value from b, returning the
// string and the remaining bytes.
func readEscaped(b []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(b); i++ {
		if b[i] != 0x00 {
			out = append(out, b[i])
			continue
		}
		if i+1 >= len(b) {
			return "", nil, fmt.Errorf("warehouse: truncated escaped string")
		}
		switch b[i+1] {
		case 0x00:
			return string(out), b[i+2:], nil
		case 0x01:
			out = append(out, 0x00)
			i++
		default:
			return "", nil, fmt.Errorf("warehouse: invalid escape byte 0x%02x", b[i+1])
		}
	}
	return "", nil, fmt.Errorf("warehouse: unterminated escaped string")
}

// Encode appends the order-preserving byte form of the key to dst.
func (k Key) Encode(dst []byte) []byte {
	dst = appendEscaped(dst, k.Test)
	dst = binary.BigEndian.AppendUint32(dst, k.Width)
	dst = binary.BigEndian.AppendUint32(dst, k.Words)
	dst = appendEscaped(dst, k.Scheme)
	dst = binary.BigEndian.AppendUint64(dst, k.Job)
	dst = binary.BigEndian.AppendUint32(dst, k.Cell)
	return dst
}

// DecodeKey parses an Encode-d key.
func DecodeKey(b []byte) (Key, error) {
	var k Key
	var err error
	if k.Test, b, err = readEscaped(b); err != nil {
		return Key{}, err
	}
	if len(b) < 8 {
		return Key{}, fmt.Errorf("warehouse: truncated key ints")
	}
	k.Width = binary.BigEndian.Uint32(b)
	k.Words = binary.BigEndian.Uint32(b[4:])
	b = b[8:]
	if k.Scheme, b, err = readEscaped(b); err != nil {
		return Key{}, err
	}
	if len(b) != 12 {
		return Key{}, fmt.Errorf("warehouse: key tail is %d bytes, want 12", len(b))
	}
	k.Job = binary.BigEndian.Uint64(b)
	k.Cell = binary.BigEndian.Uint32(b[8:])
	return k, nil
}

// Compare orders keys as tuples: Test, Width, Words, Scheme, Job,
// Cell, strings lexicographic and integers numeric. It is the
// specification Encode must preserve (FuzzKeyCodecRoundTrip holds the
// two orders equal).
func (k Key) Compare(o Key) int {
	if c := bytes.Compare([]byte(k.Test), []byte(o.Test)); c != 0 {
		return c
	}
	if k.Width != o.Width {
		return cmpU64(uint64(k.Width), uint64(o.Width))
	}
	if k.Words != o.Words {
		return cmpU64(uint64(k.Words), uint64(o.Words))
	}
	if c := bytes.Compare([]byte(k.Scheme), []byte(o.Scheme)); c != 0 {
		return c
	}
	if k.Job != o.Job {
		return cmpU64(k.Job, o.Job)
	}
	return cmpU64(uint64(k.Cell), uint64(o.Cell))
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// tuplePrefix returns the encoded (Test, Width, Words, Scheme) part of
// the key. Every key of one tuple starts with it, and the encoding is
// self-delimiting, so no tuple's prefix is a prefix of another's.
func (k Key) tuplePrefix() string {
	b := k.Encode(nil)
	return string(b[:len(b)-12])
}

// priKey is the primary plan's page-token key: (job, cell)
// big-endian.
func priKey(job uint64, cell uint32) []byte {
	b := make([]byte, 0, 12)
	b = binary.BigEndian.AppendUint64(b, job)
	return binary.BigEndian.AppendUint32(b, cell)
}

// JobSeq parses a twmd job id ("c<seq>") into the numeric sequence
// the warehouse keys on. Ids not of that shape are not indexable.
func JobSeq(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'c' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// JobID formats a job sequence back into the twmd job id.
func JobID(seq uint64) string { return "c" + strconv.FormatUint(seq, 10) }
