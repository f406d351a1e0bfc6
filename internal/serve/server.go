// Package serve is the streaming classification daemon behind
// cmd/jobgraphd: an HTTP/JSON API that accepts trace rows or whole
// jobs, assembles DAGs incrementally as tasks arrive, and classifies
// each completed job against a precomputed core.Model (WL dictionary +
// group centroids), hot-swappable via an atomic pointer.
//
// The serving plane is engineered failure-first:
//
//   - Admission is a bounded batcher (batcher.go): a full queue is an
//     immediate 429 + Retry-After, never unbounded growth.
//   - Every accepted mutation is journaled (journal.go) with one fsync
//     per batch before it is acknowledged; a crashed daemon replays the
//     journal at boot and classifies every accepted job exactly once.
//   - Per-request deadlines propagate through context into assembly
//     and classification.
//   - Results are remembered in two generations of resultWindow; each
//     time one fills, the journal is compacted online to the remembered
//     results plus the pending rows, so memory, journal size and boot
//     replay stay bounded.
//   - Drain stops admission, flushes in-flight batches, compacts the
//     journal to the still-pending rows, and exits cleanly.
//   - The batcher loop and classify pool carry obs heartbeats, so the
//     flight-recorder watchdog covers a wedged daemon.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jobgraph/internal/conflate"
	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/obs"
	"jobgraph/internal/obs/promexport"
	"jobgraph/internal/trace"
	"jobgraph/internal/wl"
)

// Config parameterizes a Server.
type Config struct {
	// Model is the initial classification model (required).
	Model *core.Model
	// Reload, when non-nil, builds a replacement model for POST
	// /model/reload. It runs outside the admission path; classification
	// continues against the old model until the swap.
	Reload func(ctx context.Context) (*core.Model, error)
	// ANN, when non-nil, serves GET /v1/similar/{job}: approximate
	// top-k similarity over the indexed corpus. Absent, the endpoint
	// answers 501.
	ANN *wl.ANNIndex
	// ReloadANN, when non-nil, builds a replacement ANN index during
	// POST /model/reload so the similarity corpus swaps atomically with
	// the model it was trained beside.
	ReloadANN func(ctx context.Context) (*wl.ANNIndex, error)
	// JournalPath enables the crash-safe admission journal. Empty runs
	// journal-less (accepted-but-unclassified work dies with the
	// process — tests and throwaway runs only).
	JournalPath string
	// RequestTimeout bounds each request's admission + classification
	// (0: no per-request deadline beyond the client's).
	RequestTimeout time.Duration
	// Workers bounds classification parallelism within a flushed batch
	// (<=0: GOMAXPROCS).
	Workers int
	// Batch configures the admission batcher.
	Batch BatcherConfig
	// Registry defaults to obs.Default(); Logger to the registry's.
	Registry *obs.Registry
	Logger   *slog.Logger
}

// pendingJob is a job mid-assembly: rows accepted, completion not yet
// requested. Touched only from the batcher's flush goroutine and boot
// replay — never concurrently.
type pendingJob struct {
	rows []trace.TaskRecord
}

// Result is one classification outcome.
type Result struct {
	Job   string  `json:"job"`
	Group string  `json:"group"`
	Score float64 `json:"score"`
	// Size is the classified DAG's node count.
	Size int `json:"size"`
	// Predicted demand from the group profile.
	MeanInstances float64 `json:"mean_instances"`
	MeanPlanCPU   float64 `json:"mean_plan_cpu"`
	MeanDuration  float64 `json:"mean_duration_s"`
	// Replayed marks results produced by journal replay after a crash.
	Replayed bool `json:"replayed,omitempty"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Schema          string `json:"schema"`
	Pending         int    `json:"pending_jobs"`
	Classified      int64  `json:"classified"`
	AcceptedRows    int64  `json:"accepted_rows"`
	RejectedFull    int64  `json:"rejected_queue_full"`
	ReplayedRecords int64  `json:"replayed_records"`
	ReplayClassify  int64  `json:"replay_classified"`
	ReplaySkipped   int64  `json:"replay_skipped"`
	JournalTruncate bool   `json:"journal_tail_truncated"`
	ModelGroups     int    `json:"model_groups"`
	ModelTrainedOn  int    `json:"model_trained_on"`
	ModelLoadedAt   string `json:"model_loaded_at"`
	// IndexedJobs is the ANN similarity corpus size (0: no index).
	IndexedJobs int `json:"indexed_jobs"`
}

// StatsSchema versions the /v1/stats payload.
const StatsSchema = "jobgraph-serve-stats/v1"

// Server is the daemon state. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	lg      *slog.Logger
	model   atomic.Pointer[core.Model]
	ann     atomic.Pointer[wl.ANNIndex] // nil-able: similarity unconfigured
	loaded  atomic.Int64                // unix nano of the last model swap
	batcher *Batcher
	journal *Journal // nil when journal-less

	// pending is owned by the flush goroutine after boot.
	pending map[string]*pendingJob
	// classified and prevClassified are the current and previous
	// generations of journaled results (see remember), so a re-complete
	// of a recent job returns its recorded result. Owned like pending.
	classified     map[string]Result
	prevClassified map[string]Result
	// compactDue is set when a result generation fills; the flush that
	// set it compacts the journal down to what memory still holds.
	compactDue bool

	replayed        []Result
	replayedRecords int64
	journalTrunc    bool

	mu       sync.Mutex // guards reload (one at a time)
	draining atomic.Bool

	// Instruments.
	cAccepted   *obs.Counter
	cClassified *obs.Counter
	cRejected   *obs.Counter
	cReplayCls  *obs.Counter
	cReplaySkip *obs.Counter
	gPending    *obs.Gauge
	reqRate     *obs.RateCounter
	reqLatency  *obs.WindowHistogram
}

// Request bodies.
type rowsRequest struct {
	Rows []trace.TaskRecord `json:"rows"`
}
type completeRequest struct {
	Job string `json:"job"`
}
type jobRequest struct {
	Name  string             `json:"name"`
	Tasks []trace.TaskRecord `json:"tasks"`
}

// Batcher op payloads.
type rowsOp struct{ rows []trace.TaskRecord }
type completeOp struct{ job string }
type jobOp struct {
	name  string
	tasks []trace.TaskRecord
}

// rowsAccepted is the response to a rowsOp.
type rowsAccepted struct {
	Accepted int      `json:"accepted"`
	Jobs     []string `json:"jobs"`
}

// errNotFound marks a complete request for a job with no pending rows.
var errNotFound = errors.New("serve: no pending rows for job")

// New builds the server: opens and replays the journal, classifies
// every job the crash left accepted-but-unclassified (exactly once),
// and starts the admission batcher.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Logger == nil {
		cfg.Logger = cfg.Registry.Logger()
	}
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		lg:         cfg.Logger,
		pending:    make(map[string]*pendingJob),
		classified: make(map[string]Result),

		cAccepted:   cfg.Registry.Counter("serve.rows_accepted"),
		cClassified: cfg.Registry.Counter("serve.jobs_classified"),
		cRejected:   cfg.Registry.Counter("serve.rejected_queue_full"),
		cReplayCls:  cfg.Registry.Counter("serve.replay.classified"),
		cReplaySkip: cfg.Registry.Counter("serve.replay.skipped"),
		gPending:    cfg.Registry.Gauge("serve.pending_jobs"),
		reqRate:     cfg.Registry.RateCounter("serve.requests", time.Minute),
		reqLatency:  cfg.Registry.WindowHistogram("serve.request_ms", time.Minute),
	}
	s.model.Store(cfg.Model)
	if cfg.ANN != nil {
		cfg.ANN.Build() // freeze LSH tables before concurrent queries
		s.ann.Store(cfg.ANN)
	}
	s.loaded.Store(time.Now().UnixNano())

	if cfg.JournalPath != "" {
		j, records, truncated, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.journalTrunc = truncated
		if truncated {
			s.lg.Warn("journal tail was damaged and truncated", "path", cfg.JournalPath)
		}
		if err := s.replay(records); err != nil {
			j.Close()
			return nil, err
		}
	}

	cfg.Batch.Registry = cfg.Registry
	s.batcher = newBatcher(cfg.Batch, s.flush)
	return s, nil
}

// replay rebuilds pending/classified state from journal records and
// closes the crash window: every job with an OpComplete but no OpResult
// is classified now, and the result journaled, so an acknowledged
// admission survives any number of kill -9s with exactly-once results.
func (s *Server) replay(records []Record) error {
	s.replayedRecords = int64(len(records))
	type openJob struct {
		rows     []trace.TaskRecord
		complete bool
	}
	jobs := make(map[string]*openJob)
	order := []string{}
	for _, rec := range records {
		switch rec.Op {
		case OpRow:
			if rec.Row == nil {
				continue
			}
			oj := jobs[rec.Job]
			if oj == nil {
				oj = &openJob{}
				jobs[rec.Job] = oj
				order = append(order, rec.Job)
			}
			oj.rows = append(oj.rows, *rec.Row)
		case OpComplete:
			if oj := jobs[rec.Job]; oj != nil {
				oj.complete = true
			}
		case OpResult:
			s.remember(Result{Job: rec.Job, Group: rec.Group, Score: rec.Score})
			delete(jobs, rec.Job)
		}
	}
	for _, name := range order {
		oj, ok := jobs[name]
		if !ok { // resolved by a later OpResult
			s.cReplaySkip.Add(1)
			continue
		}
		if !oj.complete {
			s.pending[name] = &pendingJob{rows: oj.rows}
			continue
		}
		res, err := s.classify(context.Background(), name, oj.rows)
		if err != nil {
			// A job the old process accepted but this model cannot
			// classify must not wedge boot; surface and move on.
			s.lg.Warn("replay: classification failed", "job", name, "err", err)
			continue
		}
		res.Replayed = true
		if err := s.journalResult(res); err != nil {
			return err
		}
		s.remember(res)
		s.replayed = append(s.replayed, res)
		s.cReplayCls.Add(1)
		s.lg.Info("replay: classified in-flight job", "job", name, "group", res.Group)
	}
	s.gPending.Set(int64(len(s.pending)))
	return nil
}

// journalResult appends and syncs one result record (replay path).
func (s *Server) journalResult(res Result) error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Append(Record{
		Op: OpResult, Seq: s.journal.NextSeq(), Job: res.Job,
		Group: res.Group, Score: res.Score,
	}); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Replayed returns the results produced by boot-time journal replay.
func (s *Server) Replayed() []Result { return s.replayed }

// buildGraph assembles a job's accepted rows into the classification
// representation: a dependency DAG, node-conflated when the model was
// trained on conflated graphs.
func (s *Server) buildGraph(name string, rows []trace.TaskRecord) (*dag.Graph, error) {
	specs := make([]dag.TaskSpec, 0, len(rows))
	for _, t := range rows {
		specs = append(specs, dag.TaskSpec{
			Name:      t.TaskName,
			Duration:  t.Duration(),
			Instances: t.InstanceNum,
			PlanCPU:   t.PlanCPU,
			PlanMem:   t.PlanMem,
		})
	}
	built, err := dag.FromTasks(name, specs, dag.BuildOptions{SkipMissingDeps: true})
	if err != nil {
		return nil, fmt.Errorf("serve: building DAG for %s: %w", name, err)
	}
	g := built.Graph
	if m := s.model.Load(); m != nil && m.Conflate {
		return conflateGraph(g)
	}
	return g, nil
}

// classify assembles and scores one job against the current model.
// Safe from any goroutine: the model pointer is read once and the
// model itself is immutable.
func (s *Server) classify(ctx context.Context, name string, rows []trace.TaskRecord) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	m := s.model.Load()
	g, err := s.buildGraph(name, rows)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	mg, score, err := m.Classify(g)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Job:           name,
		Group:         mg.Name,
		Score:         score,
		Size:          g.Size(),
		MeanInstances: mg.MeanInstances,
		MeanPlanCPU:   mg.MeanPlanCPU,
		MeanDuration:  mg.MeanDuration,
	}, nil
}

// flush processes one admission batch: journal every accepted mutation
// with a single group-commit fsync, assemble pending jobs, classify
// completed ones across the worker pool, journal the results (second
// group commit), and respond.
func (s *Server) flush(batch []*op) {
	hb := s.reg.Heartbeat("serve.workers")
	hb.Beat()
	// Active only while a flush runs: between batches the pool is
	// quiescent and silence must not look like a stall to the watchdog.
	defer hb.Done()

	type classifyItem struct {
		o    *op
		name string
		rows []trace.TaskRecord
		res  Result
		err  error
	}
	var classifies []*classifyItem
	var live []*op

	// Admission: reject dead requests, journal the rest.
	for _, o := range batch {
		if err := o.ctx.Err(); err != nil {
			o.respond(nil, err)
			continue
		}
		live = append(live, o)
	}
	if s.journal != nil {
		journalErr := func() error {
			for _, o := range live {
				switch req := o.req.(type) {
				case rowsOp:
					for i := range req.rows {
						r := req.rows[i]
						if err := s.journal.Append(Record{
							Op: OpRow, Seq: s.journal.NextSeq(),
							Job: r.JobName, Row: &r,
						}); err != nil {
							return err
						}
					}
				case jobOp:
					for i := range req.tasks {
						r := req.tasks[i]
						r.JobName = req.name
						if err := s.journal.Append(Record{
							Op: OpRow, Seq: s.journal.NextSeq(),
							Job: req.name, Row: &r,
						}); err != nil {
							return err
						}
					}
					if err := s.journal.Append(Record{
						Op: OpComplete, Seq: s.journal.NextSeq(), Job: req.name,
					}); err != nil {
						return err
					}
				case completeOp:
					if err := s.journal.Append(Record{
						Op: OpComplete, Seq: s.journal.NextSeq(), Job: req.job,
					}); err != nil {
						return err
					}
				}
			}
			return s.journal.Sync() // one fsync for the whole batch
		}()
		if journalErr != nil {
			s.lg.Error("journal append failed; rejecting batch", "err", journalErr)
			for _, o := range live {
				o.respond(nil, fmt.Errorf("serve: journal: %w", journalErr))
			}
			return
		}
	}

	// Assembly: mutate pending state serially (this goroutine owns it).
	for _, o := range live {
		switch req := o.req.(type) {
		case rowsOp:
			seen := map[string]bool{}
			var jobs []string
			for _, r := range req.rows {
				pj := s.pending[r.JobName]
				if pj == nil {
					pj = &pendingJob{}
					s.pending[r.JobName] = pj
				}
				pj.rows = append(pj.rows, r)
				if !seen[r.JobName] {
					seen[r.JobName] = true
					jobs = append(jobs, r.JobName)
				}
			}
			sort.Strings(jobs)
			s.cAccepted.Add(int64(len(req.rows)))
			o.respond(rowsAccepted{Accepted: len(req.rows), Jobs: jobs}, nil)
		case jobOp:
			rows := make([]trace.TaskRecord, 0, len(req.tasks))
			for _, t := range req.tasks {
				t.JobName = req.name
				rows = append(rows, t)
			}
			s.cAccepted.Add(int64(len(rows)))
			classifies = append(classifies, &classifyItem{o: o, name: req.name, rows: rows})
		case completeOp:
			if res, ok := s.result(req.job); ok {
				// Idempotent completion: already classified (possibly by
				// a pre-crash process) — return the recorded result.
				o.respond(res, nil)
				continue
			}
			pj := s.pending[req.job]
			if pj == nil {
				o.respond(nil, fmt.Errorf("%w: %s", errNotFound, req.job))
				continue
			}
			delete(s.pending, req.job)
			classifies = append(classifies, &classifyItem{o: o, name: req.job, rows: pj.rows})
		default:
			o.respond(nil, fmt.Errorf("serve: unknown op %T", o.req))
		}
	}
	s.gPending.Set(int64(len(s.pending)))

	// Classification: independent per job, fanned across the pool.
	if len(classifies) > 0 {
		workers := s.cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(classifies) {
			workers = len(classifies)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					it := classifies[i]
					it.res, it.err = s.classify(it.o.ctx, it.name, it.rows)
					hb.Beat()
				}
			}()
		}
		for i := range classifies {
			idx <- i
		}
		close(idx)
		wg.Wait()

		// Results journal + respond (second group commit).
		var syncErr error
		if s.journal != nil {
			for _, it := range classifies {
				if it.err != nil {
					continue
				}
				if err := s.journal.Append(Record{
					Op: OpResult, Seq: s.journal.NextSeq(), Job: it.name,
					Group: it.res.Group, Score: it.res.Score,
				}); err != nil {
					syncErr = err
					break
				}
			}
			if syncErr == nil {
				syncErr = s.journal.Sync()
			}
		}
		for _, it := range classifies {
			switch {
			case it.err != nil:
				it.o.respond(nil, it.err)
			case syncErr != nil:
				it.o.respond(nil, fmt.Errorf("serve: journal: %w", syncErr))
			default:
				s.remember(it.res)
				s.cClassified.Add(1)
				it.o.respond(it.res, nil)
			}
		}
	}
	if s.compactDue {
		s.compactDue = false
		s.compactOnline()
	}
}

// resultWindow is the size of one result generation. The daemon keeps
// two, so it remembers at least the newest resultWindow results and at
// most twice that, however long it runs.
const resultWindow = 512

// remember records a journaled result. A full current generation
// becomes the previous one (dropping the older) and the journal is
// marked for compaction, which keeps the heap, the journal and boot
// replay bounded by the window rather than by uptime.
func (s *Server) remember(res Result) {
	if len(s.classified) >= resultWindow {
		// make, not clear: a fresh map lets the old buckets be freed.
		s.prevClassified, s.classified = s.classified, make(map[string]Result, resultWindow)
		s.compactDue = true
	}
	s.classified[res.Job] = res
}

// result looks a job up in both result generations, newest first.
func (s *Server) result(job string) (Result, bool) {
	if res, ok := s.classified[job]; ok {
		return res, true
	}
	res, ok := s.prevClassified[job]
	return res, ok
}

// compactOnline rewrites the journal to the results both generations
// hold followed by the rows of every pending job: exactly the state a
// restart must rebuild. Results go first so a job name that was
// classified and then received fresh rows replays as pending again.
// Runs on the flush goroutine between batches, when nothing is in the
// crash window. A failure is logged: the old journal (a superset) stays
// in place, or, if the swap itself failed, the journal is closed and
// later batches fail loudly instead of losing acknowledged rows.
func (s *Server) compactOnline() {
	if s.journal == nil {
		return
	}
	recs := make([]Record, 0, len(s.prevClassified)+len(s.classified))
	for _, gen := range []map[string]Result{s.prevClassified, s.classified} {
		for _, name := range sortedNames(gen) {
			res := gen[name]
			recs = append(recs, Record{
				Op: OpResult, Seq: s.journal.NextSeq(), Job: name,
				Group: res.Group, Score: res.Score,
			})
		}
	}
	if err := s.journal.Compact(s.pendingRecords(recs)); err != nil {
		s.lg.Error("online journal compaction failed", "err", err)
	}
}

// pendingRecords appends the journaled rows of every pending job, in
// job-name order, to recs.
func (s *Server) pendingRecords(recs []Record) []Record {
	for _, name := range sortedNames(s.pending) {
		for i := range s.pending[name].rows {
			r := s.pending[name].rows[i]
			recs = append(recs, Record{Op: OpRow, Seq: s.journal.NextSeq(), Job: name, Row: &r})
		}
	}
	return recs
}

// sortedNames returns m's keys in ascending order, so compacted
// journals are byte-for-byte reproducible.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// conflateGraph mirrors the training pipeline's node conflation so a
// model trained on conflated graphs scores queries in the same
// representation.
func conflateGraph(g *dag.Graph) (*dag.Graph, error) {
	cg, _, err := conflate.Conflate(g)
	return cg, err
}

// Model returns the live model (for tests and introspection).
func (s *Server) Model() *core.Model { return s.model.Load() }

// SwapModel atomically replaces the model; in-flight classifications
// finish against whichever model they loaded.
func (s *Server) SwapModel(m *core.Model) {
	s.model.Store(m)
	s.loaded.Store(time.Now().UnixNano())
	s.reg.Counter("serve.model_reloads").Add(1)
}

// ANN returns the live similarity index (nil when unconfigured).
func (s *Server) ANN() *wl.ANNIndex { return s.ann.Load() }

// SwapANN atomically replaces the similarity index; in-flight queries
// finish against whichever index they loaded. The index is built before
// the swap so no query pays the table-freeze cost.
func (s *Server) SwapANN(ix *wl.ANNIndex) {
	if ix != nil {
		ix.Build()
	}
	s.ann.Store(ix)
	s.reg.Counter("serve.ann_reloads").Add(1)
}

// MarkDraining flips readiness (GET /readyz answers 503) ahead of the
// actual drain, so health checks divert traffic before the listener
// stops accepting.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// Drain performs the graceful shutdown sequence after the HTTP listener
// has stopped accepting: flush the admission queue, compact the journal
// down to the still-pending rows, and close it. Safe to call once.
func (s *Server) Drain() error {
	s.draining.Store(true)
	s.batcher.Close()
	if s.journal == nil {
		return nil
	}
	// The flush goroutine has exited; pending is ours again.
	recs := s.pendingRecords(nil)
	recs = append(recs, Record{Op: OpDrain, Seq: s.journal.NextSeq()})
	if err := s.journal.Compact(recs); err != nil {
		s.journal.Close()
		return err
	}
	s.lg.Info("journal compacted at drain", "pending_jobs", len(s.pending))
	return s.journal.Close()
}

// Stats snapshots the daemon state.
func (s *Server) Stats() Stats {
	m := s.model.Load()
	st := Stats{
		Schema:          StatsSchema,
		Pending:         int(s.gPending.Value()),
		Classified:      s.cClassified.Value(),
		AcceptedRows:    s.cAccepted.Value(),
		RejectedFull:    s.cRejected.Value(),
		ReplayedRecords: s.replayedRecords,
		ReplayClassify:  s.cReplayCls.Value(),
		ReplaySkipped:   s.cReplaySkip.Value(),
		JournalTruncate: s.journalTrunc,
		ModelGroups:     len(m.Groups),
		ModelTrainedOn:  m.TrainedOn,
		ModelLoadedAt:   time.Unix(0, s.loaded.Load()).UTC().Format(time.RFC3339),
	}
	if ix := s.ann.Load(); ix != nil {
		st.IndexedJobs = ix.Len()
	}
	return st
}

// Handler returns the daemon's HTTP mux: the v1 API plus the telemetry
// plane (/metrics Prometheus exposition, /progress, /healthz, /readyz).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rows", s.instrument(s.handleRows))
	mux.HandleFunc("POST /v1/jobs", s.instrument(s.handleJob))
	mux.HandleFunc("POST /v1/complete", s.instrument(s.handleComplete))
	mux.HandleFunc("POST /model/reload", s.instrument(s.handleReload))
	mux.HandleFunc("GET /v1/similar/{job}", s.instrument(s.handleSimilar))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", promexport.Handler(s.reg))
	mux.Handle("GET /progress", s.reg.ProgressHandler())
	return mux
}

// instrument wraps a handler with the request rate/latency instruments
// and the per-request deadline.
func (s *Server) instrument(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.reqRate.Add(1)
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
		s.reqLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// submit runs one op through the batcher and maps transport errors to
// HTTP statuses. Returns (nil, true) if it already wrote a response.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, req any) (any, bool) {
	v, err := s.batcher.Submit(r.Context(), req)
	switch {
	case err == nil:
		return v, false
	case errors.Is(err, ErrQueueFull):
		s.cRejected.Add(1)
		// The queue frees up within one flush; a second is the smallest
		// Retry-After HTTP can say.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, errNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return nil, true
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	var body rowsRequest
	if !decodeJSON(w, r, &body) {
		return
	}
	if len(body.Rows) == 0 {
		http.Error(w, "no rows", http.StatusBadRequest)
		return
	}
	for i, row := range body.Rows {
		if row.JobName == "" {
			http.Error(w, fmt.Sprintf("row %d: empty job name", i), http.StatusBadRequest)
			return
		}
	}
	v, done := s.submit(w, r, rowsOp{rows: body.Rows})
	if done {
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var body jobRequest
	if !decodeJSON(w, r, &body) {
		return
	}
	if body.Name == "" || len(body.Tasks) == 0 {
		http.Error(w, "job name and tasks required", http.StatusBadRequest)
		return
	}
	v, done := s.submit(w, r, jobOp{name: body.Name, tasks: body.Tasks})
	if done {
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var body completeRequest
	if !decodeJSON(w, r, &body) {
		return
	}
	if body.Job == "" {
		http.Error(w, "job required", http.StatusBadRequest)
		return
	}
	v, done := s.submit(w, r, completeOp{job: body.Job})
	if done {
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// SimilarSchema versions the /v1/similar payload.
const SimilarSchema = "jobgraph-similar/v1"

// SimilarHit is one approximate nearest neighbour.
type SimilarHit struct {
	Job        string  `json:"job"`
	Similarity float64 `json:"similarity"`
}

// SimilarResponse is the GET /v1/similar/{job} payload.
type SimilarResponse struct {
	Schema string       `json:"schema"`
	Job    string       `json:"job"`
	K      int          `json:"k"`
	Hits   []SimilarHit `json:"hits"`
}

// defaultSimilarK is the ?k= default for /v1/similar.
const defaultSimilarK = 10

// handleSimilar answers approximate top-k similarity against the
// hot-swapped ANN index. Reads only the atomic pointer — never the
// admission path — so similarity stays available while a batch drains.
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	ix := s.ann.Load()
	if ix == nil {
		http.Error(w, "no similarity index configured", http.StatusNotImplemented)
		return
	}
	job := r.PathValue("job")
	k := defaultSimilarK
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad k %q", raw), http.StatusBadRequest)
			return
		}
		k = v
	}
	hits, err := ix.QueryJob(job, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	resp := SimilarResponse{Schema: SimilarSchema, Job: job, K: k, Hits: make([]SimilarHit, len(hits))}
	for i, h := range hits {
		resp.Hits[i] = SimilarHit{Job: h.JobID, Similarity: h.Similarity}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Reload == nil {
		http.Error(w, "no reload source configured", http.StatusNotImplemented)
		return
	}
	// One reload at a time; concurrent requests queue here, not in the
	// model builder.
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.cfg.Reload(r.Context())
	if err != nil {
		http.Error(w, fmt.Sprintf("reload: %v", err), http.StatusInternalServerError)
		return
	}
	// Rebuild the similarity index before swapping anything so the
	// model and its corpus change together or not at all.
	var ix *wl.ANNIndex
	if s.cfg.ReloadANN != nil {
		ix, err = s.cfg.ReloadANN(r.Context())
		if err != nil {
			http.Error(w, fmt.Sprintf("reload ann: %v", err), http.StatusInternalServerError)
			return
		}
	}
	s.SwapModel(m)
	indexed := 0
	if ix != nil {
		s.SwapANN(ix)
		indexed = ix.Len()
	}
	s.lg.Info("model reloaded", "groups", len(m.Groups), "trained_on", m.TrainedOn, "indexed_jobs", indexed)
	writeJSON(w, http.StatusOK, map[string]any{
		"groups":       len(m.Groups),
		"trained_on":   m.TrainedOn,
		"built_at":     m.BuiltAt,
		"indexed_jobs": indexed,
	})
}

// maxBody bounds request bodies (a job of 100k tasks is ~20 MB; beyond
// that is abuse, not workload).
const maxBody = 32 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
