package main

import (
	"fmt"
	"runtime"
	"time"

	"jobgraph/internal/conflate"
	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/serve"
	"jobgraph/internal/trace"
	"jobgraph/internal/wl"
)

// similarK is the hit-list length the probe and the serve clients ask
// for (the daemon's default ?k=).
const similarK = 10

// probeResult holds the single-threaded operation probe's latencies
// (ms), one entry per job:
//
//   - build: dag.FromTasks on the job's rows;
//   - classify: Model.Classify on the built graph;
//   - op: build plus classify, the in-process classification;
//   - write: journal Append of every row (encoded and buffered);
//   - sync: write plus the Sync that makes the rows durable;
//   - similar: ANNIndex.QueryJob for an indexed job.
//
// The batch workloads report write without the fsync: on a shared
// disk a single fsync's tail varies several-fold from run to run, so
// it lives in the per-layer serve.journal_sync_ms (a median) instead.
type probeResult struct {
	build, classify, op, write, sync, similar []float64
	// classifyAllocs is heap allocations per Model.Classify.
	classifyAllocs float64
	attempted      int
	failed         int
}

// buildGraph assembles rows into the graph the daemon classifies: the
// same dag.FromTasks options, conflated when the model was trained on
// conflated graphs.
func buildGraph(m *core.Model, name string, rows []trace.TaskRecord) (*dag.Graph, error) {
	specs := make([]dag.TaskSpec, 0, len(rows))
	for _, t := range rows {
		specs = append(specs, dag.TaskSpec{
			Name: t.TaskName, Duration: t.Duration(), Instances: t.InstanceNum,
			PlanCPU: t.PlanCPU, PlanMem: t.PlanMem,
		})
	}
	built, err := dag.FromTasks(name, specs, dag.BuildOptions{SkipMissingDeps: true})
	if err != nil {
		return nil, err
	}
	if m.Conflate {
		g, _, err := conflate.Conflate(built.Graph)
		return g, err
	}
	return built.Graph, nil
}

// prober runs single operations against a model, a similarity index
// and a scratch journal, cycling through jobs and the index's jobs.
type prober struct {
	m      *core.Model
	ix     *wl.ANNIndex
	ids    []string
	jobs   []trace.Job
	j      *serve.Journal
	next   int
	graphs []*dag.Graph
	res    probeResult
}

// maxAllocGraphs bounds the graphs kept for the allocation count.
const maxAllocGraphs = 1000

func newProber(m *core.Model, ix *wl.ANNIndex, jobs []trace.Job, journalPath string) (*prober, error) {
	if len(jobs) == 0 || ix == nil || ix.Len() == 0 {
		return nil, fmt.Errorf("nothing to probe (%d jobs, index present %t)", len(jobs), ix != nil)
	}
	j, _, _, err := serve.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	return &prober{m: m, ix: ix, ids: ix.JobIDs(), jobs: jobs, j: j}, nil
}

// run times n operations after warm unrecorded ones, starting from a
// collected heap. Each operation that errors counts as failed.
func (p *prober) run(n, warm int) {
	runtime.GC()
	for i := -warm; i < n; i++ {
		p.op(i >= 0)
	}
}

func (p *prober) op(rec bool) {
	pr := &p.res
	job := p.jobs[p.next%len(p.jobs)]
	sid := p.ids[p.next%len(p.ids)]
	p.next++
	pr.attempted += 3

	t0 := time.Now()
	g, err := buildGraph(p.m, job.Name, job.Tasks)
	t1 := time.Now()
	if err == nil {
		_, _, err = p.m.Classify(g)
	}
	t2 := time.Now()
	if err != nil {
		pr.failed++
	} else if rec {
		pr.build = append(pr.build, ms(t1.Sub(t0)))
		pr.classify = append(pr.classify, ms(t2.Sub(t1)))
		pr.op = append(pr.op, ms(t2.Sub(t0)))
		if len(p.graphs) < maxAllocGraphs {
			p.graphs = append(p.graphs, g)
		}
	}

	t0 = time.Now()
	err = nil
	for k := range job.Tasks {
		if err == nil {
			err = p.j.Append(serve.Record{Op: serve.OpRow, Seq: p.j.NextSeq(), Job: job.Name, Row: &job.Tasks[k]})
		}
	}
	t1 = time.Now()
	if err == nil {
		err = p.j.Sync()
	}
	if err != nil {
		pr.failed++
	} else if rec {
		pr.write = append(pr.write, ms(t1.Sub(t0)))
		pr.sync = append(pr.sync, ms(time.Since(t0)))
	}

	t0 = time.Now()
	if _, err := p.ix.QueryJob(sid, similarK); err != nil {
		pr.failed++
	} else if rec {
		pr.similar = append(pr.similar, ms(time.Since(t0)))
	}
}

// close counts Model.Classify's allocations on the kept graphs, closes
// the journal and returns the samples.
func (p *prober) close() (probeResult, error) {
	if len(p.graphs) > 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, g := range p.graphs {
			p.m.Classify(g) // errors were counted when the graph was first classified
		}
		runtime.ReadMemStats(&after)
		p.res.classifyAllocs = float64(after.Mallocs-before.Mallocs) / float64(len(p.graphs))
	}
	return p.res, p.j.Close()
}

// count adds the probe's operations to the run's totals.
func (pr probeResult) count(rep *report) {
	rep.attempted += int64(pr.attempted)
	rep.failed += int64(pr.failed)
	if pr.failed > 0 {
		rep.notef("probe: %d of %d operations failed", pr.failed, pr.attempted)
	}
}

// setLayerMetrics reports the probe's per-layer medians.
func (pr probeResult) setLayerMetrics(rep *report) {
	rep.set("dag.build_us", 1000*median(pr.build))
	rep.set("core.classify_us", 1000*median(pr.classify))
	rep.set("core.classify_allocs", pr.classifyAllocs)
	rep.set("serve.journal_sync_ms", median(pr.sync))
	rep.set("wl.ann_query_us", 1000*median(pr.similar))
}
