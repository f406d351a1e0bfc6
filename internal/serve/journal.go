// Crash-safe admission journal: an append-only, length-prefixed,
// checksummed record log of everything the daemon accepted but has not
// yet proven classified. The contract mirrors the PR 3 gzip recovery:
// a power cut or kill -9 may sever the tail mid-record, and the journal
// must come back with every record before the cut and none of the
// garbage after it. Replay turns the surviving records back into the
// daemon's pending state, so an accepted job is classified exactly once
// across any number of crashes.
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"jobgraph/internal/trace"
)

// JournalSchema is the file header line; bump on layout changes.
const JournalSchema = "jobgraph-journal/v1"

// journalHeader is the exact byte prefix of every journal file.
var journalHeader = []byte(JournalSchema + "\n")

// Journal record operations.
const (
	// OpRow is one accepted task row of a still-assembling job.
	OpRow = "row"
	// OpComplete marks a job's assembly finished: the daemon committed
	// to classifying it. A complete without a matching result is the
	// crash window replay must close.
	OpComplete = "complete"
	// OpResult records a finished classification; its presence makes
	// replay skip the job (exactly-once).
	OpResult = "result"
	// OpDrain marks a clean shutdown; purely informational.
	OpDrain = "drain"
)

// Record is one journal entry.
type Record struct {
	Op  string `json:"op"`
	Seq uint64 `json:"seq"`
	Job string `json:"job,omitempty"`
	// Row carries the accepted task row for OpRow.
	Row *trace.TaskRecord `json:"row,omitempty"`
	// Group/Score carry the classification outcome for OpResult.
	Group string  `json:"group,omitempty"`
	Score float64 `json:"score,omitempty"`
}

// Journal is the open, writable log. Append buffers records; Sync
// flushes and fsyncs — callers group-commit one Sync per admission
// batch rather than one per record. Safe for use from one goroutine
// (the batcher's flush loop) plus Close from the drain path.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bytes.Buffer // pending encoded records since the last Sync
	path string
	seq  uint64 // highest sequence number written or replayed
}

// recordFrame encodes one record as [len u32 LE][crc32 u32 LE][payload].
func recordFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal journal record: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// OpenJournal opens (creating if needed) the journal at path, replays
// every intact record, and truncates any damaged tail so appends
// continue from the last good byte. The returned records are in log
// order; truncated reports whether a damaged tail was cut off.
func OpenJournal(path string) (j *Journal, records []Record, truncated bool, err error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, false, fmt.Errorf("serve: journal dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("serve: open journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("serve: read journal: %w", err)
	}
	j = &Journal{f: f, w: &bytes.Buffer{}, path: path}

	good := int64(0)
	switch {
	case len(data) == 0:
		// Fresh file: stamp the header now so even an empty journal
		// identifies itself.
		if _, err := f.Write(journalHeader); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("serve: write journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("serve: sync journal header: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("serve: %w", err)
		}
		return j, nil, false, nil
	case !bytes.HasPrefix(data, journalHeader):
		// Possibly a torn header write; only an exact prefix of the
		// header is recoverable (rewrite it), anything else is alien.
		if bytes.HasPrefix(journalHeader, data) {
			truncated = true
			good = 0
			break
		}
		f.Close()
		return nil, nil, false, fmt.Errorf("serve: %s is not a %s journal", path, JournalSchema)
	default:
		good = int64(len(journalHeader))
		records, good, truncated = decodeRecords(data, good)
	}

	if truncated || good < int64(len(data)) {
		truncated = true
		if err := f.Truncate(goodOrHeader(good)); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("serve: truncate damaged journal tail: %w", err)
		}
		if good == 0 {
			// The header itself was torn: rewrite it whole.
			if _, err := f.WriteAt(journalHeader, 0); err != nil {
				f.Close()
				return nil, nil, false, fmt.Errorf("serve: rewrite journal header: %w", err)
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("serve: sync truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("serve: seek journal end: %w", err)
	}
	for _, r := range records {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, records, truncated, nil
}

// goodOrHeader keeps at least the header when the log body was all bad.
func goodOrHeader(good int64) int64 {
	if good < int64(len(journalHeader)) {
		return int64(len(journalHeader))
	}
	return good
}

// decodeRecords walks frames from offset off, returning the intact
// records, the offset past the last intact frame, and whether a damaged
// tail was found. Length-prefixed frames cannot be resynchronized after
// damage, so the first bad frame ends the walk — which is exactly the
// torn-tail semantics an fsync'd append-only log needs.
func decodeRecords(data []byte, off int64) ([]Record, int64, bool) {
	var out []Record
	for {
		if off == int64(len(data)) {
			return out, off, false
		}
		if int64(len(data))-off < 8 {
			return out, off, true // torn length/crc prefix
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if off+8+n > int64(len(data)) {
			return out, off, true // torn payload
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return out, off, true // corrupt payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return out, off, true // checksum passed but not a record
		}
		out = append(out, rec)
		off += 8 + n
	}
}

// NextSeq returns the next unused sequence number and advances it.
func (j *Journal) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	return j.seq
}

// Append buffers one record for the next Sync. The record is not
// durable — and must not be acknowledged — until Sync returns.
func (j *Journal) Append(rec Record) error {
	frame, err := recordFrame(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	j.w.Write(frame)
	return nil
}

// Sync writes every buffered record and fsyncs the file — the group
// commit that makes a whole admission batch durable with one disk
// round trip.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	if j.w.Len() > 0 {
		if _, err := j.f.Write(j.w.Bytes()); err != nil {
			return fmt.Errorf("serve: journal write: %w", err)
		}
		j.w.Reset()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the file. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	cerr := j.f.Close()
	j.f = nil
	if err != nil {
		return err
	}
	return cerr
}

// Compact atomically rewrites the journal to contain only recs — the
// remembered results plus the pending rows while the daemon runs, the
// pending rows alone at a clean drain — dropping the history replay no
// longer needs. The sequence counter carries over so replayed and fresh
// records never collide. If the swap fails after the rename, the
// journal is left closed.
func (j *Journal) Compact(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal closed")
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("serve: compact temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	buf := &bytes.Buffer{}
	buf.Write(journalHeader)
	for _, rec := range recs {
		frame, err := recordFrame(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		buf.Write(frame)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("serve: compact rename: %w", err)
	}
	// From here the old handle points at an unlinked inode: appending
	// to it would acknowledge rows no restart can see, so any failure
	// closes the journal instead.
	old := j.f
	j.f = nil
	old.Close()
	// The rename is durable only once the directory entry is: without
	// this fsync a power cut could bring back the old journal and lose
	// every row acknowledged after the compaction.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("serve: compact: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: reopen compacted journal: %w", err)
	}
	j.f = f
	return nil
}

// syncDir fsyncs a directory, making renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open journal dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("fsync journal dir: %w", err)
	}
	return d.Close()
}
