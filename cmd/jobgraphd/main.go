// Command jobgraphd is the streaming classification daemon: it loads
// (or trains) a jobgraph model, then serves an HTTP/JSON API that
// accepts trace rows or whole jobs, assembles DAGs incrementally, and
// classifies completed jobs into the learned groups A–E.
//
// Usage:
//
//	jobgraphd [-addr localhost:8847] [-model model.gob]
//	          [-ann] [-ann-index index.gob]
//	          [-trace batch_task.csv | -gen 10000] [-sample 100] [-groups 5]
//	          [-journal serve.journal] [-batch-size 64] [-queue-depth 1024]
//	          [-request-timeout 30s] [-drain-timeout 30s]
//	          [-v] [-watchdog 30s] [-ledger runs.jsonl] ...
//
// Robustness contract:
//
//   - Admission is group commit without a timer: a request on an idle
//     daemon is flushed at once; requests arriving during a flush share
//     the next one (at most -batch-size ops).
//   - A full admission queue answers 429 + Retry-After: 1; nothing
//     queues unbounded. Clients retry with internal/serve/client.
//   - Every accepted row is fsync'd to -journal before acknowledgment;
//     kill -9 the daemon and the next boot replays the journal and
//     classifies every accepted job exactly once.
//   - SIGTERM/SIGINT drain: stop accepting, flush in-flight batches,
//     compact the journal, write the ledger entry, exit 0. A second
//     signal hard-exits.
//   - POST /model/reload hot-swaps the model from -model atomically;
//     in-flight classifications finish on the model they started with.
//
// The -fault-* flags inject deterministic connection-level faults
// (accept stall, mid-body read stall, trickled reads) for soak and CI
// testing against the stall watchdog.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"jobgraph/internal/cli"
	"jobgraph/internal/core"
	"jobgraph/internal/faultinject"
	"jobgraph/internal/obs"
	"jobgraph/internal/serve"
	"jobgraph/internal/wl"
)

func main() { cli.Run(run) }

func run() error {
	var (
		addr      = flag.String("addr", "localhost:8847", "listen address (host:port; :0 picks a free port)")
		modelPath = flag.String("model", "", "model file: loaded when present, written after boot training when absent")
		tracePath = flag.String("trace", "", "batch_task CSV to train from when no model file exists (empty: generate)")
		gen       = flag.Int("gen", 10000, "jobs to generate for boot training when no trace given")
		sample    = flag.Int("sample", 100, "jobs to sample for boot training")
		seed      = flag.Int64("seed", 1, "RNG seed for boot training")
		groups    = flag.Int("groups", 5, "number of spectral groups for boot training")
		ann       = flag.Bool("ann", false, "serve GET /v1/similar/{job} from a sketch-LSH index built at boot training")
		annIndex  = flag.String("ann-index", "", "ANN index file: loaded when present, written after boot training with -ann")

		journal        = flag.String("journal", "", "crash-safe admission journal path (empty: accepted work is not durable)")
		batchSize      = flag.Int("batch-size", 64, "most admission operations one group-committed batch takes")
		queueDepth     = flag.Int("queue-depth", 1024, "admission queue bound; beyond it requests get 429")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0: none)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM graceful drain")

		faultAcceptStall      = flag.Duration("fault-accept-stall", 0, "fault injection: delay Accept this long")
		faultAcceptStallConns = flag.Int("fault-accept-stall-conns", 0, "fault injection: connections the accept stall applies to (0: all)")
		faultReadStallAfter   = flag.Int64("fault-read-stall-after", 0, "fault injection: wedge connection reads after this many bytes")
		faultReadStallConns   = flag.Int("fault-read-stall-conns", 0, "fault injection: connections the read stall applies to (0: all)")
		faultSlowReadChunk    = flag.Int("fault-slow-read-chunk", 0, "fault injection: max bytes per connection read")
		faultSlowReadDelay    = flag.Duration("fault-slow-read-delay", 0, "fault injection: delay before each connection read")
	)
	pf := cli.RegisterPipelineFlags("jobgraphd", true)
	flag.Parse()

	sess, err := pf.Start()
	if err != nil {
		return fmt.Errorf("jobgraphd: %v", err)
	}
	defer sess.Close()
	defer pf.Close()

	model, annIx, err := bootModel(pf, *modelPath, *annIndex, *tracePath, *gen, *sample, *seed, *groups, *ann)
	if err != nil {
		return fmt.Errorf("jobgraphd: %v", err)
	}

	cfg := serve.Config{
		Model:          model,
		ANN:            annIx,
		JournalPath:    *journal,
		RequestTimeout: *requestTimeout,
		Workers:        *pf.Workers,
		Batch: serve.BatcherConfig{
			BatchSize:  *batchSize,
			QueueDepth: *queueDepth,
		},
	}
	if *modelPath != "" {
		cfg.Reload = func(ctx context.Context) (*core.Model, error) {
			return core.LoadModel(*modelPath)
		}
	}
	if *annIndex != "" {
		cfg.ReloadANN = func(ctx context.Context) (*wl.ANNIndex, error) {
			return loadANNFile(*annIndex)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return fmt.Errorf("jobgraphd: %v", err)
	}
	if n := len(srv.Replayed()); n > 0 {
		fmt.Fprintf(os.Stderr, "jobgraphd: journal replay classified %d in-flight job(s)\n", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("jobgraphd: listen: %v", err)
	}
	faults := faultinject.ListenerFaults{
		AcceptStall:      *faultAcceptStall,
		AcceptStallConns: *faultAcceptStallConns,
		ReadStallAfter:   *faultReadStallAfter,
		ReadStallConns:   *faultReadStallConns,
		SlowReadChunk:    *faultSlowReadChunk,
		SlowReadDelay:    *faultSlowReadDelay,
	}
	if faults.Active() {
		ln = faults.Wrap(ln)
		sess.AddWarning("connection fault injection active")
	}

	// Announced unconditionally (not behind -v) so -addr :0 is usable
	// and scripts can scrape the resolved port.
	fmt.Fprintf(os.Stderr, "jobgraphd listening on http://%s (model: %d groups, trained on %d jobs)\n",
		ln.Addr(), len(model.Groups), model.TrainedOn)

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *requestTimeout > 0 {
		// A trickling or wedged client cannot hold a request slot past
		// the request deadline plus slack.
		hs.ReadTimeout = *requestTimeout + 10*time.Second
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("jobgraphd: serve: %v", err)
	case <-sess.Terminated():
	}

	// Graceful drain: readiness flips first, the listener stops
	// accepting, in-flight requests finish (bounded), then the batcher
	// flushes and the journal compacts. sess.Close (deferred) writes
	// the ledger entry after.
	srv.MarkDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		sess.AddWarning(fmt.Sprintf("drain: http shutdown incomplete: %v", err))
		hs.Close()
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("jobgraphd: drain: %v", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "jobgraphd drained cleanly: %d classified, %d rows accepted, %d pending preserved\n",
		st.Classified, st.AcceptedRows, st.Pending)
	return nil
}

// bootModel loads the model file when it exists; otherwise it trains
// one from the trace (or a generated workload) and, when -model was
// given, saves the result for the next boot. With ann set, the training
// run also builds the sketch-LSH similarity index (persisted to
// annIndexPath when given, mirroring -model); a prebuilt model skips
// training, so ann then requires an existing index file.
func bootModel(pf *cli.PipelineFlags, modelPath, annIndexPath, tracePath string, gen, sample int, seed int64, groups int, ann bool) (*core.Model, *wl.ANNIndex, error) {
	lg := obs.Default().Logger()
	var ix *wl.ANNIndex
	if annIndexPath != "" {
		if _, err := os.Stat(annIndexPath); err == nil {
			ix, err = loadANNFile(annIndexPath)
			if err != nil {
				return nil, nil, err
			}
			lg.Info("ann index loaded", "path", annIndexPath, "jobs", ix.Len())
		}
	}
	if modelPath != "" {
		if _, err := os.Stat(modelPath); err == nil {
			m, err := core.LoadModel(modelPath)
			if err != nil {
				return nil, nil, err
			}
			lg.Info("model loaded", "path", modelPath, "groups", len(m.Groups),
				"trained_on", m.TrainedOn, "built_at", m.BuiltAt)
			if ann && ix == nil {
				return nil, nil, fmt.Errorf("-ann with a prebuilt model needs an existing -ann-index file (remove %s to retrain both)", modelPath)
			}
			return m, ix, nil
		}
	}

	readOpts, err := pf.ReadOptions()
	if err != nil {
		return nil, nil, err
	}
	jobs, istats, err := cli.LoadOrGenerateOpts(tracePath, gen, seed, readOpts)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig(cli.TraceWindow(), seed)
	cfg.SampleSize = sample
	cfg.Groups = groups
	cfg.Ingest = istats
	cfg.ANN = ann && ix == nil
	pf.Configure(&cfg)
	an, err := core.Run(jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.ExtractModel(an, cfg.Conflate)
	if err != nil {
		return nil, nil, err
	}
	lg.Info("model trained", "groups", len(m.Groups), "trained_on", m.TrainedOn)
	if modelPath != "" {
		if err := m.Save(modelPath); err != nil {
			return nil, nil, err
		}
		lg.Info("model saved", "path", modelPath)
	}
	if an.ANNIndex != nil {
		ix = an.ANNIndex
		lg.Info("ann index built", "jobs", ix.Len())
		if annIndexPath != "" {
			if err := saveANNFile(ix, annIndexPath); err != nil {
				return nil, nil, err
			}
			lg.Info("ann index saved", "path", annIndexPath)
		}
	}
	return m, ix, nil
}

func loadANNFile(path string) (*wl.ANNIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wl.LoadANNIndex(f)
}

// saveANNFile writes the index via a same-directory temp file and
// rename, so a crash mid-write never leaves a torn index for the next
// boot (or a reload) to trip over.
func saveANNFile(ix *wl.ANNIndex, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}
