package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jobgraph/internal/trace"
)

func testRecords() []Record {
	row := &trace.TaskRecord{TaskName: "t1", JobName: "j1", InstanceNum: 3}
	return []Record{
		{Op: OpRow, Seq: 1, Job: "j1", Row: row},
		{Op: OpComplete, Seq: 2, Job: "j1"},
		{Op: OpResult, Seq: 3, Job: "j1", Group: "B", Score: 0.875},
	}
}

func writeJournal(t *testing.T, path string, recs []Record) {
	t.Helper()
	j, got, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(got) != 0 || truncated {
		t.Fatalf("fresh journal not empty: %d records, truncated=%v", len(got), truncated)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "serve.journal")
	recs := testRecords()
	writeJournal(t, path, recs)

	j, got, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Op != recs[i].Op || rec.Seq != recs[i].Seq || rec.Job != recs[i].Job {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, rec, recs[i])
		}
	}
	if got[0].Row == nil || got[0].Row.InstanceNum != 3 {
		t.Fatalf("row payload lost: %+v", got[0].Row)
	}
	if got[2].Group != "B" || got[2].Score != 0.875 {
		t.Fatalf("result payload lost: %+v", got[2])
	}
	// Sequence counter resumes past the replayed records.
	if seq := j.NextSeq(); seq != 4 {
		t.Fatalf("NextSeq after replay = %d, want 4", seq)
	}
}

// A kill -9 can sever the file anywhere; every cut point must recover
// the records fully written before it and accept appends afterwards.
func TestJournalTornTailEveryCutPoint(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")
	recs := testRecords()
	writeJournal(t, ref, recs)
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: header, then each record's end offset.
	bounds := []int{len(journalHeader)}
	off := int64(len(journalHeader))
	for range recs {
		got, next, _ := decodeRecords(data, off)
		if len(got) == 0 {
			t.Fatal("decode stalled")
		}
		_ = got
		// decodeRecords walks all frames; step one frame manually.
		n := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + n
		bounds = append(bounds, int(off))
		_ = next
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, truncated, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// Number of fully-written records before the cut.
		want := 0
		for i := 1; i < len(bounds); i++ {
			if cut >= bounds[i] {
				want = i
			}
		}
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		// cut 0 is indistinguishable from a fresh file; a cut exactly on a
		// frame (or header) boundary loses nothing.
		wantTrunc := cut != 0 && cut != bounds[want]
		if truncated != wantTrunc {
			t.Fatalf("cut %d: truncated=%v, want %v", cut, truncated, wantTrunc)
		}
		// The recovered journal must accept and persist new appends.
		if err := j.Append(Record{Op: OpDrain, Seq: j.NextSeq()}); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := j.Sync(); err != nil {
			t.Fatalf("cut %d: sync: %v", cut, err)
		}
		j.Close()
		_, got2, trunc2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: re-reopen: %v", cut, err)
		}
		if trunc2 || len(got2) != want+1 {
			t.Fatalf("cut %d: after append got %d records (truncated=%v), want %d",
				cut, len(got2), trunc2, want+1)
		}
		os.Remove(path)
	}
}

func TestJournalCorruptMiddleByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.journal")
	writeJournal(t, path, testRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the second record: everything from there on
	// is unrecoverable, the first record survives.
	data[len(journalHeader)+30] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	if !truncated {
		t.Fatal("corruption not reported")
	}
	if len(got) > 2 {
		t.Fatalf("recovered %d records past corruption", len(got))
	}
}

func TestJournalRejectsAlienFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alien")
	if err := os.WriteFile(path, []byte("definitely not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); err == nil {
		t.Fatal("expected alien-file error")
	}
}

func TestJournalTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	if err := os.WriteFile(path, journalHeader[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open torn header: %v", err)
	}
	defer j.Close()
	if !truncated || len(got) != 0 {
		t.Fatalf("torn header: records=%d truncated=%v", len(got), truncated)
	}
	if err := j.Append(Record{Op: OpDrain, Seq: j.NextSeq()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got2, trunc2, err := OpenJournal(path)
	if err != nil || trunc2 || len(got2) != 1 {
		t.Fatalf("recovered journal unusable: %d records, truncated=%v, err=%v", len(got2), trunc2, err)
	}
}

func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	writeJournal(t, path, testRecords())

	j, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	keep := []Record{
		{Op: OpRow, Seq: j.NextSeq(), Job: "j2", Row: &trace.TaskRecord{TaskName: "t9", JobName: "j2"}},
		{Op: OpDrain, Seq: j.NextSeq()},
	}
	if err := j.Compact(keep); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// The compacted journal stays writable and the counter carries over.
	after := j.NextSeq()
	if after <= keep[1].Seq {
		t.Fatalf("seq went backwards after compact: %d <= %d", after, keep[1].Seq)
	}
	if err := j.Append(Record{Op: OpDrain, Seq: after}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, got, truncated, err := OpenJournal(path)
	if err != nil || truncated {
		t.Fatalf("reopen compacted: %v truncated=%v", err, truncated)
	}
	if len(got) != 3 || got[0].Job != "j2" || got[1].Op != OpDrain {
		t.Fatalf("compacted content wrong: %+v", got)
	}
}

// FuzzOpenJournal feeds arbitrary bytes behind a valid header: opening
// must yield an error or records plus a truncation flag, never a panic,
// and re-opening the repaired file must yield the same records, clean.
func FuzzOpenJournal(f *testing.F) {
	var whole []byte
	for _, rec := range testRecords() {
		frame, err := recordFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		whole = append(whole, frame...)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	nullFrame, err := recordFrame(Record{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(nullFrame, "junk"...))

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "serve.journal")
		if err := os.WriteFile(path, append(append([]byte{}, journalHeader...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, _, err := OpenJournal(path)
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, again, truncated, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen repaired journal: %v", err)
		}
		defer j2.Close()
		if truncated {
			t.Fatal("repaired journal still reports a damaged tail")
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("reopen yields %d records, first open %d", len(again), len(recs))
		}
	})
}
