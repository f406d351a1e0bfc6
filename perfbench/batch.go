package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"jobgraph/internal/cli"
	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/obs"
	"jobgraph/internal/sampling"
	"jobgraph/internal/taskname"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

// batchSpec is one batch workload's pass.
type batchSpec struct {
	jobs, sample int
	// traces is how many traces (seeded apart) one pass analyses;
	// more than one evens out input-dependent costs such as the
	// eigensolver's sweep count.
	traces int
	// ann turns on core.Run's sketch and LSH-index stages.
	ann bool
	// label mirrors reproduce around core.Run: FilterParallel before
	// it, then ExtractModel and Model.Classify on every eligible job.
	label bool
	// ablation runs the A1/A6 kernels (wl.KernelMatrix at h=0..5 and
	// the shortest-path base) on the sample.
	ablation bool
}

// batch runs passes of one spec over the CSVs written at setup.
type batch struct {
	spec    batchSpec
	seed    int64
	csvs    []string
	workers int
}

// passResult is what one pass produced: the last trace's outputs,
// the row and job counts of all its traces, and a digest of every
// output the checks compare between passes.
type passResult struct {
	jobs     []trace.Job
	rows     int64
	jobCount int
	arena    *taskname.Arena
	cands    []sampling.Candidate
	an       *core.Analysis
	model    *core.Model
	digest   string
	dur      time.Duration
	alloc    uint64
}

func (b *batch) config(arena *taskname.Arena, ingest *trace.ReadStats, ann bool) core.Config {
	cfg := core.DefaultConfig(cli.TraceWindow(), b.seed)
	cfg.SampleSize = b.spec.sample
	cfg.ANN = ann
	cfg.Workers = b.workers
	cfg.Arena = arena
	cfg.Ingest = ingest
	return cfg
}

// writeTrace generates the spec's trace and writes it as a batch_task
// CSV, returning the row count.
func writeTrace(path string, jobs int, seed int64) (int, error) {
	recs, err := tracegen.Generate(tracegen.DefaultConfig(jobs, seed))
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteTasks(f, recs); err != nil {
		f.Close()
		return 0, err
	}
	return len(recs), f.Close()
}

// pass runs the workload's pass once over every trace, with spans
// when tr is non-nil. The result keeps the last trace's outputs.
func (b *batch) pass(tr *tracer) (*passResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := tr.start(nil, "pass")
	res := &passResult{}
	h := sha256.New()
	var err error
	for _, csv := range b.csvs {
		if err = b.passTrace(tr, root, csv, res, h); err != nil {
			break
		}
	}
	root.End()
	res.dur = time.Since(start)
	runtime.ReadMemStats(&after)
	res.alloc = after.TotalAlloc - before.TotalAlloc
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, err
}

// passTrace runs the pass's steps on one trace, adding the outputs the
// checks compare to h.
func (b *batch) passTrace(tr *tracer, root *obs.Span, csv string, res *passResult, h io.Writer) error {
	res.arena = taskname.NewArena()
	var stats trace.ReadStats
	err := tr.step(root, "trace.read", func() error {
		f, err := trace.OpenTable(csv)
		if err != nil {
			return err
		}
		defer f.Close()
		res.jobs, stats, err = trace.ReadJobsOpts(f, trace.ReadOptions{Workers: b.workers, Arena: res.arena})
		res.rows += stats.Rows
		res.jobCount += len(res.jobs)
		return err
	})
	if err == nil && b.spec.label {
		err = tr.step(root, "sampling.filter", func() error {
			var err error
			res.cands, _, err = sampling.FilterParallel(res.jobs, sampling.PaperCriteria(cli.TraceWindow()), b.workers)
			return err
		})
	}
	if err == nil {
		err = tr.step(root, "core.run", func() error {
			var err error
			res.an, err = core.Run(res.jobs, b.config(res.arena, &stats, b.spec.ann))
			return err
		})
	}
	if err == nil {
		var fp string
		if fp, err = res.an.Fingerprint(); err == nil {
			fmt.Fprintf(h, "fingerprint %s\n", fp)
		}
	}
	if err == nil && b.spec.label {
		err = tr.step(root, "core.model", func() error {
			var err error
			res.model, err = core.ExtractModel(res.an, false)
			return err
		})
	}
	if err == nil && b.spec.label {
		err = tr.step(root, "core.classify", func() error {
			hist, err := labelHistogram(res.model, res.cands)
			fmt.Fprintf(h, "labels %s\n", hist)
			return err
		})
	}
	if err == nil && b.spec.ablation {
		err = tr.step(root, "wl.ablation", func() error {
			d, err := ablationKernels(res.an, b.workers)
			fmt.Fprintf(h, "ablation %s\n", d)
			return err
		})
	}
	return err
}

// labelHistogram classifies every eligible job and renders the group
// populations, e.g. "A=40311 B=9920 ...".
func labelHistogram(m *core.Model, cands []sampling.Candidate) (string, error) {
	counts := map[string]int{}
	for _, c := range cands {
		g, _, err := m.Classify(c.Graph)
		if err != nil {
			return "", fmt.Errorf("classify %s: %w", c.Job.Name, err)
		}
		counts[g.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("%s=%d ", n, counts[n])
	}
	return out, nil
}

// ablationKernels computes the A1 (h = 0..5) and A6 (shortest-path
// base) kernel matrices over the sample and digests them.
func ablationKernels(an *core.Analysis, workers int) (string, error) {
	opts := make([]wl.Options, 0, 7)
	for h := 0; h <= 5; h++ {
		opts = append(opts, wl.Options{Iterations: h, UseTypeLabels: true})
	}
	opts = append(opts, wl.Options{Iterations: 3, UseTypeLabels: true, Base: wl.BaseShortestPath})
	h := sha256.New()
	var buf [8]byte
	for _, o := range opts {
		m, err := wl.KernelMatrix(an.Graphs, o, workers)
		if err != nil {
			return "", err
		}
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replay times, after a traced pass, each layer call the pass itself
// does not make, on that pass's outputs, so every workload reports
// every layer.
func (b *batch) replay(tr *tracer, res *passResult) error {
	root := tr.start(nil, "replay")
	defer root.End()
	an := res.an
	if !b.spec.label {
		if err := tr.step(root, "sampling.filter", func() error {
			_, _, err := sampling.FilterParallel(res.jobs, sampling.PaperCriteria(cli.TraceWindow()), b.workers)
			return err
		}); err != nil {
			return err
		}
		if err := tr.step(root, "core.model", func() error {
			_, err := core.ExtractModel(an, false)
			return err
		}); err != nil {
			return err
		}
	}
	opt := wl.DefaultOptions()
	if err := tr.step(root, "wl.features", func() error {
		_, _, err := wl.Features(an.Graphs, opt)
		return err
	}); err != nil {
		return err
	}
	if err := tr.step(root, "wl.matrix", func() error {
		_, err := wl.KernelMatrix(an.Graphs, opt, b.workers)
		return err
	}); err != nil {
		return err
	}
	if !b.spec.ablation {
		if err := tr.step(root, "wl.ablation", func() error {
			_, err := ablationKernels(an, b.workers)
			return err
		}); err != nil {
			return err
		}
	}
	cfg := b.config(nil, nil, false)
	return tr.step(root, "cluster.spectral", func() error {
		_, err := cluster.Spectral(an.Similarity, cluster.SpectralOptions{
			K: cfg.Groups, KMeans: cluster.KMeansOptions{Seed: cfg.Seed},
		})
		return err
	})
}

// phase is the outcome of a run of passes.
type phase struct {
	durs   []float64 // seconds
	allocs []float64 // MB
	last   *passResult
}

// passes runs passes until d has elapsed (and at least min of them),
// checking every pass's outputs against the first pass's. after, when
// non-nil, runs between passes, outside their timing.
func (b *batch) passes(rep *report, tr *tracer, d time.Duration, min int, want *string, after func(*passResult) error) (phase, error) {
	var ph phase
	deadline := time.Now().Add(d)
	for i := 0; i < min || time.Now().Before(deadline); i++ {
		ph.last = nil // let the previous pass's data go before the next pass
		res, err := b.pass(tr)
		if err != nil {
			rep.count(false)
			rep.notef("pass %d failed: %v", i, err)
			continue
		}
		if *want == "" {
			*want = res.digest
		}
		ok := res.digest == *want
		rep.count(ok)
		if !ok {
			rep.notef("pass %d: outputs differ from the first pass", i)
		}
		if tr != nil {
			if err := b.replay(tr, res); err != nil {
				return ph, fmt.Errorf("layer replay: %w", err)
			}
		}
		if after != nil {
			if err := after(res); err != nil {
				return ph, err
			}
		}
		ph.durs = append(ph.durs, res.dur.Seconds())
		ph.allocs = append(ph.allocs, mb(res.alloc))
		ph.last = res
	}
	if ph.last == nil {
		return ph, fmt.Errorf("the last pass failed")
	}
	return ph, nil
}

func runIngest(e *env) (*report, error) {
	s := e.sizes
	return runBatch(e, batchSpec{jobs: s.ingestJobs, sample: s.ingestSample, traces: 1, label: true})
}

func runCluster(e *env) (*report, error) {
	s := e.sizes
	return runBatch(e, batchSpec{jobs: s.clusterJobs, sample: s.clusterSample, traces: s.clusterTraces, ann: true, ablation: true})
}

// traceSeed is the tracegen seed of a workload's i-th trace.
func traceSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

// runBatch sets up the traces, measures passes and probes the
// workload's model with single operations.
func runBatch(e *env, spec batchSpec) (*report, error) {
	rep := newReport()
	b := &batch{spec: spec, seed: e.seed, workers: workers()}
	for i := 0; i < spec.traces; i++ {
		b.csvs = append(b.csvs, filepath.Join(e.dir, fmt.Sprintf("batch_task-%d.csv", i)))
	}
	var setups []float64
	rows := 0
	for r := 0; r < e.sizes.setupRepeats; r++ {
		start := time.Now()
		rows = 0
		for i, csv := range b.csvs {
			n, err := writeTrace(csv, spec.jobs, traceSeed(e.seed, i))
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			rows += n
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	e.setup.Inputs["traces"] = spec.traces
	e.setup.Inputs["jobs_per_trace"] = spec.jobs
	e.setup.Inputs["rows"] = rows
	e.setup.Inputs["sample"] = spec.sample
	e.setup.Inputs["workers"] = b.workers
	rep.set("setup_s", median(setups))

	// Between untraced passes, a chunk of single operations probes the
	// pass's model, so the probe's samples spread over the whole phase.
	var p *prober
	probe := func(res *passResult) error {
		warm := 0
		if p == nil {
			model, ix, jobs, err := b.probeInputs(res)
			if err != nil {
				return fmt.Errorf("probe inputs: %w", err)
			}
			if p, err = newProber(model, ix, jobs, filepath.Join(e.dir, "probe.journal")); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			warm = e.sizes.probeOps / 10
		}
		p.run(e.sizes.probeOps, warm)
		return nil
	}
	var want string
	base, err := b.passes(rep, nil, e.measured(), e.sizes.minPasses, &want, probe)
	if err != nil {
		return nil, err
	}
	passS := median(base.durs)
	rep.set("pass_s", passS)
	rep.set("alloc_mb_per_pass", median(base.allocs))
	rep.set("jobs_per_s", float64(base.last.jobCount)/passS)
	rep.notef("%d untraced passes: pass_s median %.4f s, %d jobs, %d rows; passes (s) %.3f", len(base.durs), passS, base.last.jobCount, base.last.rows, base.durs)

	pr, err := p.close()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	p = nil
	pr.count(rep)
	// A single call takes microseconds, so one hypervisor preemption
	// decides its tail; the tails are read over the mean call time of
	// probeBlock consecutive calls instead.
	rep.setTail("classify", blockMeans(pr.op, probeBlock))
	rep.setTail("write", blockMeans(pr.write, probeBlock))
	rep.setTail("similar", blockMeans(pr.similar, probeBlock))
	pr.setLayerMetrics(rep)
	rep.set("serve.wait_ms", median(pr.op)-median(pr.build)-median(pr.classify))
	pr = probeResult{}

	// The live heap is read with only the last pass's outputs (and the
	// program's own state) alive: the probe's samples, which grow with
	// the number of passes, are gone by now.
	rep.set("live_heap_mb", mb(liveHeap()))
	runtime.KeepAlive(base.last)
	if !e.traced {
		return rep, nil
	}

	tr := newTracer(true)
	base.last = nil
	traced, err := b.passes(rep, tr, e.measured(), e.sizes.minPasses, &want, nil)
	if err != nil {
		return nil, err
	}
	rep.notef("%d traced passes: pass_s median %.4f s; passes (s) %.3f", len(traced.durs), median(traced.durs), traced.durs)
	setLayerMetrics(rep, tr, float64(traced.last.rows)/float64(spec.traces))
	rep.set("serve.rejected", 0)
	rep.set("bench.trace_overhead_pct", 100*(median(traced.durs)-passS)/passS)
	rep.set("bench.root_self_ms", tr.rootSelfMS("pass"))
	return rep, exportTrace(e, tr)
}

// liveHeap returns HeapAlloc after the second of two forced
// collections: objects parked in sync.Pools survive the first one, and
// how many are parked there when it runs differs from run to run.
func liveHeap() uint64 {
	var m runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// probeBlock is how many consecutive probe calls one latency sample
// of a batch workload averages.
const probeBlock = 10

// maxProbeJobs bounds the jobs the probe cycles through; they are
// copied so the probe does not keep a whole pass's trace alive.
const maxProbeJobs = 4000

// probeInputs returns the model, similarity index and eligible jobs
// the operation probe runs against: the pass's when it has them,
// otherwise built from its outputs through the same public calls.
func (b *batch) probeInputs(res *passResult) (*core.Model, *wl.ANNIndex, []trace.Job, error) {
	model, cands, ix := res.model, res.cands, res.an.ANNIndex
	var err error
	if model == nil {
		if model, err = core.ExtractModel(res.an, false); err != nil {
			return nil, nil, nil, err
		}
	}
	if cands == nil {
		if cands, _, err = sampling.FilterParallel(res.jobs, sampling.PaperCriteria(cli.TraceWindow()), b.workers); err != nil {
			return nil, nil, nil, err
		}
	}
	if ix == nil {
		an, err := core.Run(res.jobs, b.config(res.arena, nil, true))
		if err != nil {
			return nil, nil, nil, err
		}
		ix = an.ANNIndex
	}
	if len(cands) > maxProbeJobs {
		cands = cands[:maxProbeJobs]
	}
	jobs := make([]trace.Job, len(cands))
	for i, c := range cands {
		jobs[i] = trace.Job{Name: c.Job.Name, Tasks: append([]trace.TaskRecord(nil), c.Job.Tasks...)}
	}
	return model, ix, jobs, nil
}

// setLayerMetrics reports the batch layers' spans; rows is the row
// count of one trace.
func setLayerMetrics(rep *report, tr *tracer, rows float64) {
	read := tr.medianMS("trace.read")
	rep.set("trace.read_ms", read)
	rep.set("trace.rows_per_s", rows/(read/1000))
	rep.set("trace.read_alloc_mb", tr.allocMB("trace.read"))
	rep.set("sampling.filter_ms", tr.medianMS("sampling.filter"))
	rep.set("sampling.filter_alloc_mb", tr.allocMB("sampling.filter"))
	rep.set("core.run_ms", tr.medianMS("core.run"))
	rep.set("core.run_alloc_mb", tr.allocMB("core.run"))
	rep.set("core.model_ms", tr.medianMS("core.model"))
	rep.set("wl.features_ms", tr.medianMS("wl.features"))
	rep.set("wl.matrix_ms", tr.medianMS("wl.matrix"))
	rep.set("wl.ablation_ms", tr.medianMS("wl.ablation"))
	rep.set("cluster.spectral_ms", tr.medianMS("cluster.spectral"))
	rep.set("cluster.spectral_alloc_mb", tr.allocMB("cluster.spectral"))
}
