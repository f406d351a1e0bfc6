// Package core assembles the paper's full analysis pipeline:
//
//	trace jobs → integrity/availability filtering → diverse sampling →
//	(optional) node conflation → WL kernel similarity matrix →
//	spectral clustering → per-group structural profiles.
//
// Each stage is implemented by its own substrate package; core wires
// them with one configuration and exposes the Analysis result the
// experiment runners and example programs consume.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"jobgraph/internal/cluster"
	"jobgraph/internal/dag"
	"jobgraph/internal/engine"
	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
	"jobgraph/internal/sampling"
	"jobgraph/internal/stats"
	"jobgraph/internal/taskname"
	"jobgraph/internal/trace"
	"jobgraph/internal/wl"
)

// Degradation telemetry: runs that completed with warnings, and runs
// where spectral clustering failed outright and the size-quantile
// fallback produced the grouping.
var (
	obsDegradedRuns     = obs.Default().Counter("core.degraded_runs")
	obsSpectralFallback = obs.Default().Counter("core.spectral_fallbacks")
)

// spectralFn is the spectral-clustering entry point; a variable so
// degradation tests can inject failures without corrupting a real
// similarity matrix.
var spectralFn = cluster.Spectral

// Config drives one end-to-end analysis.
type Config struct {
	// Criteria filters jobs (integrity / availability / size bounds).
	Criteria sampling.Criteria
	// SampleSize is the number of jobs analyzed (the paper uses 100).
	SampleSize int
	// Seed controls sampling and clustering reproducibility.
	Seed int64
	// Conflate applies node conflation to every sampled DAG before the
	// kernel computation.
	Conflate bool
	// WL configures the graph kernel.
	WL wl.Options
	// Groups is the spectral cluster count (the paper finds 5).
	Groups int
	// Workers bounds the pipeline's parallel stages — candidate
	// filtering, the per-job DAG stage, and the kernel matrix (<=0:
	// GOMAXPROCS; 1: fully sequential). Every worker count produces the
	// same Analysis bit-for-bit.
	Workers int
	// OnJob, when non-nil, is invoked serially after each job finishes
	// the per-job DAG stage with (done, total) — the per-job counterpart
	// of wl.MatrixOptions.OnRow. Returning a non-nil error cancels the
	// run cooperatively.
	OnJob func(done, total int) error
	// OnRow is forwarded to the kernel-matrix stage
	// (wl.MatrixOptions.OnRow): serial per-row progress with cooperative
	// cancellation. Like OnJob and Workers it does not affect artifacts,
	// so it stays out of the cache fingerprints.
	OnRow func(done, total int) error
	// Arena, when non-nil, is the task-name interning arena the trace
	// was read with (trace.ReadOptions.Arena): the sampling filter
	// resolves the records' symbols to cached parses instead of
	// re-decoding each name. Pure execution configuration — symbols
	// never change which jobs survive or what the graphs contain, so
	// like Workers it stays out of the cache fingerprints.
	Arena *taskname.Arena
	// CacheDir, when non-empty, enables the engine's content-addressed
	// artifact store rooted at that directory: completed stage artifacts
	// are persisted as the run progresses and re-loaded on later runs
	// whose upstream configuration matches. Empty disables caching.
	CacheDir string
	// Ingest carries the trace reader's health stats when the jobs came
	// from a lenient read. A partial or lossy ingest is surfaced as
	// warnings on the Analysis (and Partial when the table was
	// truncated) so consumers know the sample universe was incomplete.
	Ingest *trace.ReadStats
	// ANN appends the approximate-similarity stages (wl.sketch,
	// wl.annindex) to the plan: the sampled DAGs are feature-hashed,
	// MinHash-sketched, and assembled into a persistent LSH index
	// exposed as Analysis.ANNIndex. Off by default — the exact kernel
	// path is the reference and its stage list is unchanged.
	ANN bool
	// Sketch configures the ANN sketch geometry; zero fields resolve to
	// wl.DefaultSketchOptions. Ignored unless ANN is set.
	Sketch wl.SketchOptions
	// SlowJobK bounds the slow-job exemplars retained from the dag.jobs
	// stage (Analysis.SlowJobs): 0 keeps DefaultSlowJobK, negative
	// disables capture. Like Workers and the progress hooks it is pure
	// measurement configuration — it never affects artifacts or
	// fingerprints.
	SlowJobK int
}

// DefaultConfig mirrors the paper's experimental setup for a trace
// window of the given length (seconds).
func DefaultConfig(window int64, seed int64) Config {
	return Config{
		Criteria:   sampling.PaperCriteria(window),
		SampleSize: 100,
		Seed:       seed,
		Conflate:   false,
		WL:         wl.DefaultOptions(),
		Groups:     5,
		Workers:    0,
	}
}

func (c Config) validate() error {
	if c.SampleSize < 1 {
		return fmt.Errorf("core: SampleSize %d < 1", c.SampleSize)
	}
	if c.Groups < 1 {
		return fmt.Errorf("core: Groups %d < 1", c.Groups)
	}
	return nil
}

// GroupProfile is the per-cluster statistics of Figure 9.
type GroupProfile struct {
	// Name is the population-rank label: "A" is the largest group.
	Name  string
	Count int
	// Population is Count / sample size.
	Population float64

	Sizes  stats.Summary // job size distribution
	Depths stats.Summary // critical-path distribution
	Widths stats.Summary // max-parallelism distribution

	// Resource profile of the group — the direction the paper's
	// conclusion points to ("combining resource analysis techniques for
	// job scheduling optimization"): knowing a new job's group predicts
	// its demand.
	MeanInstances float64 // mean total instances per job
	MeanPlanCPU   float64 // mean summed CPU request per job
	MeanDuration  float64 // mean summed task duration per job (s)

	// ChainFraction is the share of straight-chain jobs in the group
	// (91% in the paper's group A).
	ChainFraction float64
	// ShortFraction is the share of jobs with fewer than three tasks
	// (90.6% in the paper's group A).
	ShortFraction float64
	// Representative is the job id closest to the group's similarity
	// centroid — the paper's Figure 8 exemplar.
	Representative string

	// Members are sample indices belonging to the group.
	Members []int
}

// JobStat is the per-sampled-job structural and resource summary
// computed by the dag.jobs stage, index-aligned with Analysis.Sample.
type JobStat struct {
	// Size/Depth/MaxWidth describe the (possibly conflated) DAG: node
	// count, critical-path length, and maximum antichain width.
	Size, Depth, MaxWidth int
	// Chain reports a straight-chain topology (pattern.Chain).
	Chain bool
	// Merged is the number of nodes removed by conflation (0 when
	// conflation is disabled).
	Merged int
	// Instances/PlanCPU/Duration are the job's summed resource demand
	// across its DAG nodes.
	Instances, PlanCPU, Duration float64
}

// Analysis is the full pipeline output.
type Analysis struct {
	// Sample is the analyzed candidate set (post-filter, post-sample).
	Sample []sampling.Candidate
	// Graphs are the DAGs the kernel ran on (conflated when configured).
	Graphs []*dag.Graph
	// JobStats are the per-job structural summaries, aligned with
	// Sample/Graphs.
	JobStats []JobStat
	// FilterStats reports the §IV-B selection outcome.
	FilterStats sampling.FilterStats
	// Similarity is the n×n normalized WL kernel matrix (Figure 7).
	Similarity *linalg.Matrix
	// Labels are raw spectral cluster ids per sample index.
	Labels []int
	// Groups are population-ranked profiles (Figure 9); Groups[0] is
	// group "A".
	Groups []GroupProfile
	// Silhouette is the clustering quality in kernel-distance space.
	Silhouette float64

	// Warnings lists every non-fatal degradation the run absorbed:
	// lossy or partial ingest, eigensolver retries, degenerate k-means,
	// or the size-quantile clustering fallback. Empty on a clean run.
	Warnings []string
	// Partial reports that the input trace was truncated mid-table and
	// the analysis covers only the rows read before the cut.
	Partial bool

	// ANNIndex is the approximate-similarity index over the sampled
	// jobs, present only when Config.ANN was set. Like the kernel state
	// it is operational output, not part of the paper-comparable payload,
	// so it stays out of Fingerprint.
	ANNIndex *wl.ANNIndex
	// HashedVectors are the feature-hashed WL embeddings backing
	// ANNIndex, index-aligned with Sample/Graphs (nil without
	// Config.ANN).
	HashedVectors []wl.CompactVector

	// SlowJobs are the top-k slowest jobs measured inside the dag.jobs
	// worker pool, slowest first (see Config.SlowJobK). Wall-clock
	// measurement, not analysis output: excluded from Fingerprint, and
	// empty when the stage was served from the artifact cache (a cached
	// stage computes nothing per job).
	SlowJobs []SlowJob

	// Stages records each executed pipeline stage's wall time in
	// execution order — the per-run view of the durations the obs span
	// tree aggregates across runs. Stages satisfied from the artifact
	// cache do not appear here; they are listed on CachedStages.
	Stages []StageTiming
	// CachedStages lists the stages loaded from the artifact store
	// instead of executing, in plan order. Empty on uncached runs.
	CachedStages []string

	// stageIdx backs StageDuration with O(1) lookups; built by
	// indexStages when Run assembles the analysis.
	stageIdx map[string]time.Duration

	// Kernel state ExtractModel distills into a classifier.
	wlOpts  wl.Options
	dict    *wl.Dictionary
	vectors []wl.CompactVector
}

// StageTiming is one pipeline stage's measured wall time.
type StageTiming = engine.StageTiming

// indexStages (re)builds the StageDuration lookup map from Stages.
func (an *Analysis) indexStages() {
	an.stageIdx = make(map[string]time.Duration, len(an.Stages))
	for _, s := range an.Stages {
		an.stageIdx[s.Name] = s.Duration
	}
}

// StageDuration returns the recorded wall time of the named stage and
// whether the stage executed (cached stages report false: they have no
// wall time of their own).
func (an *Analysis) StageDuration(name string) (time.Duration, bool) {
	if an.stageIdx != nil {
		d, ok := an.stageIdx[name]
		return d, ok
	}
	// Zero-value Analysis values (hand-built in tests, or decoded from
	// JSON) may not have the index; fall back to the scan.
	for _, s := range an.Stages {
		if s.Name == name {
			return s.Duration, true
		}
	}
	return 0, false
}

// Fingerprint is a SHA-256 over the analysis payload — every field a
// consumer can observe except the run-dependent ones (stage timings and
// cache provenance). Two runs over the same jobs and semantically equal
// configuration must fingerprint identically whether their artifacts
// were computed, cache-loaded, or resumed mid-pipeline; the
// cache-equivalence tests and the CI gate rely on exactly that.
func (an *Analysis) Fingerprint() (string, error) {
	payload := struct {
		Sample      []sampling.Candidate
		Graphs      []*dag.Graph
		JobStats    []JobStat
		FilterStats sampling.FilterStats
		Similarity  *linalg.Matrix
		Labels      []int
		Groups      []GroupProfile
		Silhouette  float64
		Warnings    []string
		Partial     bool
	}{an.Sample, an.Graphs, an.JobStats, an.FilterStats, an.Similarity,
		an.Labels, an.Groups, an.Silhouette, an.Warnings, an.Partial}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("core: fingerprinting analysis: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// sizeQuantileLabels groups graphs into k contiguous job-size quantile
// buckets — the documented fallback grouping when spectral clustering
// cannot run. Labels are assigned by size rank, so every bucket is
// non-empty whenever len(graphs) >= k.
func sizeQuantileLabels(graphs []*dag.Graph, k int) []int {
	n := len(graphs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := graphs[order[a]].Size(), graphs[order[b]].Size()
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	labels := make([]int, n)
	for rank, idx := range order {
		labels[idx] = rank * k / n
	}
	return labels
}

// profileGroups computes population-ranked group statistics from the
// per-job summaries the dag.jobs stage already produced.
func profileGroups(graphs []*dag.Graph, jstats []JobStat, sim *linalg.Matrix, labels []int) []GroupProfile {
	byLabel := make(map[int][]int)
	for i, l := range labels {
		byLabel[l] = append(byLabel[l], i)
	}
	type entry struct {
		label   int
		members []int
	}
	entries := make([]entry, 0, len(byLabel))
	for l, m := range byLabel {
		entries = append(entries, entry{l, m})
	}
	sort.Slice(entries, func(i, j int) bool {
		if len(entries[i].members) != len(entries[j].members) {
			return len(entries[i].members) > len(entries[j].members)
		}
		return entries[i].label < entries[j].label
	})

	total := float64(len(labels))
	groups := make([]GroupProfile, 0, len(entries))
	for rank, e := range entries {
		gp := GroupProfile{
			Name:       groupName(rank),
			Count:      len(e.members),
			Population: float64(len(e.members)) / total,
			Members:    append([]int(nil), e.members...),
		}
		var sizes, depths, widths []float64
		chains, short := 0, 0
		var sumInst, sumCPU, sumDur float64
		for _, idx := range e.members {
			js := jstats[idx]
			sizes = append(sizes, float64(js.Size))
			depths = append(depths, float64(js.Depth))
			widths = append(widths, float64(js.MaxWidth))
			if js.Chain {
				chains++
			}
			if js.Size < 3 {
				short++
			}
			sumInst += js.Instances
			sumCPU += js.PlanCPU
			sumDur += js.Duration
		}
		gp.MeanInstances = sumInst / float64(len(e.members))
		gp.MeanPlanCPU = sumCPU / float64(len(e.members))
		gp.MeanDuration = sumDur / float64(len(e.members))
		gp.Sizes, _ = stats.Describe(sizes)
		gp.Depths, _ = stats.Describe(depths)
		gp.Widths, _ = stats.Describe(widths)
		gp.ChainFraction = float64(chains) / float64(len(e.members))
		gp.ShortFraction = float64(short) / float64(len(e.members))
		gp.Representative = graphs[medoid(sim, e.members)].JobID
		groups = append(groups, gp)
	}
	return groups
}

// medoid returns the member index with the highest total similarity to
// its group — the most central exemplar.
func medoid(sim *linalg.Matrix, members []int) int {
	best := members[0]
	bestScore := -1.0
	for _, i := range members {
		var s float64
		for _, j := range members {
			s += sim.At(i, j)
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// groupName converts a population rank to the paper's letter labels:
// A, B, C, ... then G26, G27 beyond Z.
func groupName(rank int) string {
	if rank < 26 {
		return string(rune('A' + rank))
	}
	return fmt.Sprintf("G%d", rank)
}
