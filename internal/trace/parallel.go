package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"jobgraph/internal/obs"
)

// resolveWorkers maps the ReadOptions.Workers convention onto a
// concrete goroutine count: <=0 means one per CPU.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// shardTargetBytes is the decompressed size a shard grows to before it
// is handed to a parser. It is a variable so tests can shrink it and
// force many shards on small inputs.
var shardTargetBytes = 1 << 20

// shard is one contiguous slice of the decompressed table, always cut
// at a record boundary. baseLine/baseOff locate its first byte in the
// whole stream so per-row provenance stays exact.
type shard struct {
	idx      int
	data     []byte
	baseLine int   // 1-based line number of the shard's first line
	baseOff  int64 // absolute byte offset of data[0]
}

// rowEvent is one parsed record or one classified rejection, in shard
// order. raw carries the record's verbatim bytes only when a
// quarantine sidecar is configured.
type rowEvent[T any] struct {
	rec    T
	rerr   *RowError
	raw    []byte
	zeroed int
}

// shardOut is one worker's fully parsed shard, keyed for reordering.
type shardOut[T any] struct {
	idx    int
	events []rowEvent[T]
	ioErr  error // non-CSV reader failure inside the shard (unexpected)
}

// chunkEnd is the splitter's terminal state: the stream error (nil on
// clean EOF), whether it was a truncation, and the absolute offset of
// the first byte that was NOT emitted as part of a shard — exactly the
// offset the sequential reader would report for the failure.
type chunkEnd struct {
	err       error
	truncated bool
	tailOff   int64
}

// splitShards reads the decompressed stream and cuts it into shards at
// safe record boundaries. A '\n' is a safe boundary iff the cumulative
// count of '"' bytes before it is even: in well-formed RFC 4180 input
// every quote — opener, closer, and each half of a "" escape — flips
// the parity, so odd parity means "inside a quoted field" and even
// parity means "between records" (or inside an unquoted field, where
// '\n' terminates the record anyway).
//
// Guarantees. For input whose quoting is well-formed — including input
// with wrong column counts, bad numerics, or a truncated tail, the
// realistic corruption in cloud traces, whose tables carry no quoted
// fields at all — every boundary is a true record boundary and the
// parallel read is byte-identical to the sequential one. For input
// with malformed quoting (bare or unterminated quotes), everything up
// to the FIRST such defect still splits exactly, so Strict mode — which
// aborts on the first error — is byte-identical on every input; only a
// Lenient read that continues past a quoting defect may classify the
// rows after it differently from the sequential reader until quoting
// resynchronizes.
func splitShards(r io.Reader, target int, shards chan<- shard, stop <-chan struct{}) chunkEnd {
	var (
		buf      []byte
		scanned  int  // bytes of buf already examined
		parity   int  // cumulative '"' count parity in buf[:scanned]
		nl       int  // '\n' count in buf[:scanned]
		content  bool // current line has bytes beyond '\r'
		lastSafe int  // index just past the last safe '\n'
		nlAtSafe int  // '\n' count in buf[:lastSafe]
		baseOff  int64
		baseLine = 1 // 1-based line number of buf[0]'s line
		idx      int
	)
	reg := obs.Default()
	shardCount := reg.Counter("trace.parallel.shards")
	shardBytes := reg.Counter("trace.parallel.shard_bytes")

	emit := func(end, endNL int) bool {
		if end == 0 {
			return true
		}
		sh := shard{idx: idx, data: buf[:end:end], baseLine: baseLine, baseOff: baseOff}
		select {
		case shards <- sh:
		case <-stop:
			return false
		}
		idx++
		shardCount.Add(1)
		shardBytes.Add(int64(end))
		// The carry (an incomplete record tail) gets fresh backing so
		// the emitted shard's bytes are never shared with it.
		carry := append([]byte(nil), buf[end:]...)
		buf = carry
		baseOff += int64(end)
		baseLine += endNL
		scanned -= end
		lastSafe = 0
		nl -= endNL
		nlAtSafe = 0
		return true
	}

	chunk := make([]byte, 64*1024)
	for {
		n, err := r.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for ; scanned < len(buf); scanned++ {
				switch buf[scanned] {
				case '"':
					parity ^= 1
					content = true
				case '\n':
					nl++
					// A newline ending an empty line is not a boundary:
					// csv.Reader skips blank lines but reports the NEXT
					// record's start offset as before them, so a blank
					// run must stay glued to the record that follows.
					if parity == 0 && content {
						lastSafe = scanned + 1
						nlAtSafe = nl
					}
					content = false
				case '\r':
				default:
					content = true
				}
			}
			if len(buf) >= target && lastSafe > 0 {
				if !emit(lastSafe, nlAtSafe) {
					return chunkEnd{}
				}
			}
		}
		if err == nil {
			continue
		}
		if err == io.EOF {
			// The final record may lack a trailing newline;
			// encoding/csv parses it at EOF, so ship everything.
			emit(len(buf), nl)
			return chunkEnd{}
		}
		if IsTruncated(err) {
			// Emit only the complete records; the partial tail starts
			// at baseOff+lastSafe, matching the sequential reader's
			// failure offset.
			tail := baseOff + int64(lastSafe)
			emit(lastSafe, nlAtSafe)
			return chunkEnd{err: err, truncated: true, tailOff: tail}
		}
		tail := baseOff + int64(lastSafe)
		emit(lastSafe, nlAtSafe)
		return chunkEnd{err: err, tailOff: tail}
	}
}

// parseShard decodes one shard into an ordered event list, adjusting
// line numbers and byte offsets to whole-stream coordinates. wantRaw
// keeps the verbatim bytes of rejected records for quarantine.
func parseShard[T any](sh shard, spec tableSpec[T], lenient, wantRaw bool) shardOut[T] {
	// Pre-size the event list from a conservative bytes-per-row guess
	// so appending doesn't repeatedly re-grow multi-megabyte slices.
	out := shardOut[T]{idx: sh.idx, events: make([]rowEvent[T], 0, len(sh.data)/32+4)}
	cr := csv.NewReader(bytes.NewReader(sh.data))
	cr.FieldsPerRecord = spec.columns
	cr.ReuseRecord = true
	ctx := &rowCtx{lenient: lenient}
	for {
		start := cr.InputOffset()
		ctx.nonFinite = 0
		row, err := cr.Read()
		if err == io.EOF {
			return out
		}
		var ev rowEvent[T]
		if err != nil {
			var pe *csv.ParseError
			if !errors.As(err, &pe) {
				out.ioErr = err
				return out
			}
			class := ErrClassCSV
			if errors.Is(err, csv.ErrFieldCount) {
				class = ErrClassColumns
			}
			ev.rerr = &RowError{
				Table:  spec.name,
				Line:   sh.baseLine + pe.StartLine - 1,
				Offset: sh.baseOff + start,
				Class:  class,
				Err:    pe.Err,
			}
		} else {
			rec, perr := spec.parse(row, ctx)
			ev.zeroed = ctx.nonFinite
			if perr == nil {
				ev.rec = rec
			} else {
				line, _ := cr.FieldPos(0)
				ev.rerr = &RowError{
					Table:  spec.name,
					Line:   sh.baseLine + line - 1,
					Offset: sh.baseOff + start,
					Class:  classify(perr),
					Err:    perr,
				}
			}
		}
		if ev.rerr != nil && wantRaw {
			ev.raw = append([]byte(nil), sh.data[start:cr.InputOffset()]...)
		}
		out.events = append(out.events, ev)
	}
}

// readTableParallel is the sharded decoder: a splitter cuts the stream
// at record boundaries, `workers` goroutines parse shards into event
// lists, and a single merger replays events in input order through the
// same rowSink bookkeeping the sequential path uses — so every
// observable output (record stream, stats, quarantine bytes, error
// values, log lines) is identical at any worker count.
func readTableParallel[T any](r io.Reader, spec tableSpec[T], opt ReadOptions, workers int, fn func(T) error) (ReadStats, error) {
	sink := newRowSink(spec.name, opt, spec.rowsOK, spec.rowsBad)
	defer sink.done()
	wantRaw := sink.lenient && opt.Quarantine != nil

	reg := obs.Default()
	reg.Counter("trace.parallel.reads").Add(1)

	shards := make(chan shard, workers)
	results := make(chan shardOut[T], workers)
	endc := make(chan chunkEnd, 1)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// The splitter reads r, which belongs to the caller once this
	// function returns, so every return path joins it after halt.
	splitDone := make(chan struct{})
	go func() {
		defer close(splitDone)
		end := splitShards(r, shardTargetBytes, shards, stop)
		close(shards)
		endc <- end
	}()
	defer func() {
		halt()
		<-splitDone
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows := reg.Counter(fmt.Sprintf("trace.parallel.worker%02d.rows", w))
			for sh := range shards {
				out := parseShard(sh, spec, sink.lenient, wantRaw)
				rows.Add(int64(len(out.events)))
				select {
				case results <- out:
				case <-stop:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Merge: replay shard event lists in input order. pending parks
	// shards that finished ahead of their turn.
	pending := make(map[int][]rowEvent[T])
	next := 0
	replay := func(events []rowEvent[T]) error {
		for i := range events {
			ev := &events[i]
			sink.zeroed(ev.zeroed)
			if ev.rerr == nil {
				sink.accept()
				if err := fn(ev.rec); err != nil {
					return err
				}
				continue
			}
			if err := sink.reject(ev.rerr, ev.raw); err != nil {
				return err
			}
		}
		return nil
	}
	for out := range results {
		if out.ioErr != nil {
			halt()
			return sink.stats, fmt.Errorf("trace: %s: %w", spec.name, out.ioErr)
		}
		if out.idx != next {
			pending[out.idx] = out.events
			continue
		}
		if err := replay(out.events); err != nil {
			halt()
			return sink.stats, err
		}
		next++
		for {
			events, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := replay(events); err != nil {
				halt()
				return sink.stats, err
			}
			next++
		}
	}
	// Workers are done; drain any shards parked out of order (none
	// should remain unless a worker exited on stop, which only happens
	// after an early return above).
	for {
		events, ok := pending[next]
		if !ok {
			break
		}
		delete(pending, next)
		if err := replay(events); err != nil {
			return sink.stats, err
		}
		next++
	}

	end := <-endc
	if end.err != nil {
		if !end.truncated {
			return sink.stats, fmt.Errorf("trace: %s: %w", spec.name, end.err)
		}
		if terr := sink.truncated(end.err, end.tailOff); terr != nil {
			return sink.stats, terr
		}
	}
	if err := checkBudget(spec.name, opt, &sink.stats, nil, true); err != nil {
		return sink.stats, err
	}
	return sink.stats, nil
}
