package warehouse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// snapshotMagic opens every snapshot and names its format version. A
// file with any other magic, including the paged index files of
// earlier versions ("TWMWHSE1"), opens as an empty index.
const snapshotMagic = "TWMWIDX1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapshotLocked renders the index as
//
//	magic | uvarint jobs | per job: uvarint seq, uvarint cells,
//	        per cell: uvarint cell, record value | CRC-32C (4 bytes)
//
// with jobs in sequence order and cells in cell order, so the bytes
// are a function of the indexed records alone: a live index and a
// rebuild holding the same records write identical files. Callers
// hold w.mu.
func (w *Warehouse) encodeSnapshotLocked() []byte {
	buf := make([]byte, 0, 64+48*len(w.seqs))
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(w.seqs)))
	for _, seq := range w.seqs {
		ents := w.jobs[seq]
		buf = binary.AppendUvarint(buf, seq)
		buf = binary.AppendUvarint(buf, uint64(len(ents)))
		for _, e := range ents {
			buf = binary.AppendUvarint(buf, uint64(e.cell))
			buf = appendValue(buf, w.record(e))
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// writeSnapshotLocked replaces the snapshot file through a temporary
// file and a rename, so a reader never sees a half-written snapshot
// under the real name. Nothing is fsynced: after a power loss the
// file may be stale or torn, and Open plus Reconcile handle both.
// Callers hold w.mu.
func (w *Warehouse) writeSnapshotLocked() error {
	tmp := w.path + ".tmp"
	if err := os.WriteFile(tmp, w.encodeSnapshotLocked(), 0o644); err != nil {
		return fmt.Errorf("warehouse: %v", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("warehouse: %v", err)
	}
	metCheckpoints.Inc()
	return nil
}

// loadSnapshot fills an empty index from snapshot bytes. It fails on
// a foreign magic, a checksum mismatch, or a body that does not parse
// exactly, with jobs and cells strictly ascending; the caller then
// discards whatever was loaded.
func (w *Warehouse) loadSnapshot(b []byte) error {
	if len(b) < len(snapshotMagic)+4 || string(b[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("warehouse: not a snapshot")
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[len(body):]) {
		return fmt.Errorf("warehouse: snapshot checksum mismatch")
	}
	b = body[len(snapshotMagic):]
	next := func() (uint64, error) {
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			return 0, fmt.Errorf("warehouse: truncated snapshot")
		}
		b = b[sz:]
		return n, nil
	}
	njobs, err := next()
	if err != nil {
		return err
	}
	for j := uint64(0); j < njobs; j++ {
		seq, err := next()
		if err != nil {
			return err
		}
		if len(w.seqs) > 0 && seq <= w.seqs[len(w.seqs)-1] {
			return fmt.Errorf("warehouse: snapshot jobs out of order")
		}
		ncells, err := next()
		if err != nil {
			return err
		}
		if ncells == 0 {
			return fmt.Errorf("warehouse: snapshot job %d has no cells", seq)
		}
		for c := uint64(0); c < ncells; c++ {
			cell, err := next()
			if err != nil {
				return err
			}
			if ents := w.jobs[seq]; cell > 1<<32-1 || len(ents) > 0 && uint32(cell) <= ents[len(ents)-1].cell {
				return fmt.Errorf("warehouse: snapshot cells out of order")
			}
			var r Record
			if r, b, err = readValue(seq, uint32(cell), b); err != nil {
				return err
			}
			w.insertLocked(r)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("warehouse: %d trailing bytes in snapshot", len(b))
	}
	return nil
}
