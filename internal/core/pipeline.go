// Pipeline wiring: core.Run expressed as a declarative engine plan.
//
// Each stage declares its upstream artifacts, the configuration fields
// that shape its output (the fingerprint), and a gob codec, so the
// engine can content-address every artifact. Worker counts and progress
// callbacks (Workers, OnJob, OnRow) stay out of the fingerprints on
// purpose: every worker count produces the same artifact bit-for-bit,
// so a cache populated at -workers 8 serves a -workers 1 run.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"time"

	"jobgraph/internal/cluster"
	"jobgraph/internal/conflate"
	"jobgraph/internal/dag"
	"jobgraph/internal/engine"
	"jobgraph/internal/engine/cache"
	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
	"jobgraph/internal/pattern"
	"jobgraph/internal/sampling"
	"jobgraph/internal/stages"
	"jobgraph/internal/trace"
	"jobgraph/internal/wl"
)

// Per-stage artifact shapes. These are the cache wire format: any
// change to one of them must be paired with a bump of the engine's key
// schema (or a fingerprint change) so stale artifacts miss.
type (
	filterArtifact struct {
		Cands []sampling.Candidate
		Stats sampling.FilterStats
	}
	sampleArtifact struct {
		Sample []sampling.Candidate
		Pool   int // size of the candidate pool sampled from
	}
	dagJobsArtifact struct {
		Graphs []*dag.Graph
		Stats  []JobStat
	}
	featuresArtifact struct {
		Vectors []wl.CompactVector
		Dict    *wl.Dictionary
	}
	matrixArtifact struct {
		// Sim is packed (upper triangle): symmetric similarity matrices
		// cache and ship at half the dense size. Consumers needing the
		// full n² layout (eigendecomposition, reports) call Sim.Dense().
		Sim *linalg.SymMatrix
	}
	clusterArtifact struct {
		Labels []int
		// Warnings are the degradations this stage absorbed (eigensolver
		// retries, degenerate k-means, or the size-quantile fallback).
		// They live in the artifact — not just on the Analysis — so a
		// warm run reproduces the degraded run's warnings verbatim.
		Warnings []string
		Fallback bool
	}
	profileArtifact struct {
		Groups     []GroupProfile
		Silhouette float64
	}
	sketchArtifact struct {
		Vectors []wl.CompactVector
		Sigs    []wl.Sketch
	}
	annArtifact struct {
		Index *wl.ANNIndex
	}
)

// digestJobs fingerprints the ingest source: a SHA-256 over every field
// of every task record, streamed in input order. Only computed when a
// cache store is attached (the engine's source fingerprints are lazy).
func digestJobs(jobs []trace.Job) string {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	buf = append(buf, "jobs/v1:"...)
	buf = strconv.AppendInt(buf, int64(len(jobs)), 10)
	buf = append(buf, '\n')
	h.Write(buf)
	for i := range jobs {
		j := &jobs[i]
		buf = buf[:0]
		buf = append(buf, j.Name...)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(len(j.Tasks)), 10)
		buf = append(buf, '\n')
		h.Write(buf)
		for k := range j.Tasks {
			t := &j.Tasks[k]
			buf = buf[:0]
			buf = append(buf, t.TaskName...)
			buf = append(buf, 0)
			buf = strconv.AppendInt(buf, int64(t.InstanceNum), 10)
			buf = append(buf, 0)
			buf = append(buf, t.JobName...)
			buf = append(buf, 0)
			buf = append(buf, t.TaskType...)
			buf = append(buf, 0)
			buf = append(buf, string(t.Status)...)
			buf = append(buf, 0)
			buf = strconv.AppendInt(buf, t.StartTime, 10)
			buf = append(buf, 0)
			buf = strconv.AppendInt(buf, t.EndTime, 10)
			buf = append(buf, 0)
			buf = strconv.AppendFloat(buf, t.PlanCPU, 'g', -1, 64)
			buf = append(buf, 0)
			buf = strconv.AppendFloat(buf, t.PlanMem, 'g', -1, 64)
			buf = append(buf, '\n')
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// plan builds the stage graph for one analysis run. lg is used by the
// cluster stage's degradation path; stage completion logging is the
// engine's job. times, when non-nil, receives per-job wall times from
// the dag.jobs stage (only when that stage actually executes) — it is
// measurement plumbing and deliberately bypasses the artifact/cache
// path so timings never enter the wire format.
func (cfg Config) plan(jobs []trace.Job, lg *slog.Logger, times *jobTimes) *engine.Plan {
	p := engine.NewPlan()
	p.Source(stages.Ingest, jobs, func() string { return digestJobs(jobs) })

	p.Add(&engine.Stage{
		Name:        stages.SamplingFilter,
		Deps:        []string{stages.Ingest},
		Fingerprint: fmt.Sprintf("criteria:%+v", cfg.Criteria),
		Codec:       cache.Gob[filterArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			jobs, err := engine.In[[]trace.Job](in, stages.Ingest)
			if err != nil {
				return nil, "", err
			}
			cands, fstats, err := sampling.FilterOpts(jobs, cfg.Criteria,
				sampling.FilterOptions{Workers: cfg.Workers, Arena: cfg.Arena})
			if err != nil {
				return nil, "", err
			}
			if len(cands) == 0 {
				return nil, "", fmt.Errorf("core: no jobs survive filtering (stats %+v)", fstats)
			}
			return filterArtifact{Cands: cands, Stats: fstats},
				fmt.Sprintf("kept %d/%d (integrity %d, availability %d, non-DAG %d)",
					fstats.Kept, fstats.Input, fstats.NotTerminated, fstats.OutsideWindow, fstats.NonDAG), nil
		},
	})

	p.Add(&engine.Stage{
		Name:        stages.SamplingSample,
		Deps:        []string{stages.SamplingFilter},
		Fingerprint: fmt.Sprintf("n:%d seed:%d", cfg.SampleSize, cfg.Seed),
		Codec:       cache.Gob[sampleArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			fa, err := engine.In[filterArtifact](in, stages.SamplingFilter)
			if err != nil {
				return nil, "", err
			}
			sample := sampling.SampleDiverse(fa.Cands, cfg.SampleSize, cfg.Seed)
			if len(sample) < cfg.Groups {
				return nil, "", fmt.Errorf("core: sample of %d too small for %d groups", len(sample), cfg.Groups)
			}
			return sampleArtifact{Sample: sample, Pool: len(fa.Cands)},
				fmt.Sprintf("%d jobs from pool of %d", len(sample), len(fa.Cands)), nil
		},
	})

	// dag.jobs: the per-job structural stage — conflation (when
	// configured) plus size / critical path / max width / chain
	// classification / resource sums — run across the worker pool with
	// index-addressed writes, so collection is order-stable and the
	// result is identical at every worker count.
	p.Add(&engine.Stage{
		Name:        stages.DAGJobs,
		Deps:        []string{stages.SamplingSample},
		Fingerprint: fmt.Sprintf("conflate:%t", cfg.Conflate),
		Codec:       cache.Gob[dagJobsArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			sa, err := engine.In[sampleArtifact](in, stages.SamplingSample)
			if err != nil {
				return nil, "", err
			}
			sample := sa.Sample
			graphs := make([]*dag.Graph, len(sample))
			jstats := make([]JobStat, len(sample))
			if times != nil {
				times.durs = make([]time.Duration, len(sample))
			}
			workers := cfg.Workers
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			reg := obs.Default()
			err = runPool(stages.DAGJobs, len(sample), workers, cfg.OnJob, func(i int) error {
				if times != nil {
					start := reg.Now()
					defer func() { times.durs[i] = reg.Now().Sub(start) }()
				}
				g := sample[i].Graph
				js := JobStat{}
				if cfg.Conflate {
					cg, cst, err := conflate.Conflate(g)
					if err != nil {
						return fmt.Errorf("core: conflating %s: %w", g.JobID, err)
					}
					js.Merged = cst.SizeBefore - cst.SizeAfter
					g = cg
				}
				depth, width, err := g.DepthAndMaxWidth()
				if err != nil {
					return fmt.Errorf("core: depth/width of %s: %w", g.JobID, err)
				}
				js.Size, js.Depth, js.MaxWidth = g.Size(), depth, width
				if s, err := pattern.Classify(g); err == nil && s == pattern.Chain {
					js.Chain = true
				}
				for p := 0; p < g.NumNodes(); p++ {
					n := g.NodeAt(p)
					js.Instances += float64(n.Instances)
					js.PlanCPU += n.PlanCPU
					js.Duration += n.Duration
				}
				graphs[i] = g
				jstats[i] = js
				return nil
			})
			if err != nil {
				return nil, "", err
			}
			art := dagJobsArtifact{Graphs: graphs, Stats: jstats}
			if !cfg.Conflate {
				return art, fmt.Sprintf("structural stats for %d graphs (conflation disabled)", len(graphs)), nil
			}
			merged := 0
			for i := range jstats {
				merged += jstats[i].Merged
			}
			return art, fmt.Sprintf("merged %d nodes across %d graphs", merged, len(graphs)), nil
		},
	})

	p.Add(&engine.Stage{
		Name:        stages.WLFeatures,
		Deps:        []string{stages.DAGJobs},
		Fingerprint: fmt.Sprintf("wl:%+v", cfg.WL),
		Codec:       cache.Gob[featuresArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			da, err := engine.In[dagJobsArtifact](in, stages.DAGJobs)
			if err != nil {
				return nil, "", err
			}
			vectors, dict, err := wl.Features(da.Graphs, cfg.WL)
			if err != nil {
				return nil, "", err
			}
			return featuresArtifact{Vectors: vectors, Dict: dict},
				fmt.Sprintf("%d graphs embedded, %d distinct labels (h=%d)",
					len(vectors), dict.Len(), cfg.WL.Iterations), nil
		},
	})

	p.Add(&engine.Stage{
		Name:  stages.WLMatrix,
		Deps:  []string{stages.WLFeatures},
		Codec: cache.Gob[matrixArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			fa, err := engine.In[featuresArtifact](in, stages.WLFeatures)
			if err != nil {
				return nil, "", err
			}
			sim, err := wl.SymMatrixFromCompactOpts(fa.Vectors, wl.MatrixOptions{
				Workers: cfg.Workers,
				OnRow:   cfg.OnRow,
			})
			if err != nil {
				return nil, "", err
			}
			n := len(fa.Vectors)
			return matrixArtifact{Sim: sim},
				fmt.Sprintf("%dx%d similarities (%d pairs)", n, n, n*(n+1)/2), nil
		},
	})

	p.Add(&engine.Stage{
		Name:        stages.ClusterSpectral,
		Deps:        []string{stages.WLMatrix, stages.DAGJobs},
		Fingerprint: fmt.Sprintf("groups:%d seed:%d", cfg.Groups, cfg.Seed),
		Codec:       cache.Gob[clusterArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			ma, err := engine.In[matrixArtifact](in, stages.WLMatrix)
			if err != nil {
				return nil, "", err
			}
			// The sample stage validates this on cold runs, but its
			// artifact does not depend on Groups — a cached sample can
			// be smaller than a newly requested group count, so the
			// check must also hold here.
			if ma.Sim.N < cfg.Groups {
				return nil, "", fmt.Errorf("core: sample of %d too small for %d groups", ma.Sim.N, cfg.Groups)
			}
			spec, err := spectralFn(ma.Sim.Dense(), cluster.SpectralOptions{
				K:      cfg.Groups,
				KMeans: cluster.KMeansOptions{Seed: cfg.Seed},
			})
			if err != nil {
				// Degrade rather than abort: group by job-size quantiles
				// so the run still yields profiles, flagged loudly. Size
				// is the strongest single structural signal the paper
				// identifies, so the fallback is coarse but not arbitrary.
				obsSpectralFallback.Add(1)
				lg.Warn("spectral clustering failed; using size-quantile fallback", "err", err)
				da, derr := engine.In[dagJobsArtifact](in, stages.DAGJobs)
				if derr != nil {
					return nil, "", derr
				}
				return clusterArtifact{
						Labels: sizeQuantileLabels(da.Graphs, cfg.Groups),
						Warnings: []string{fmt.Sprintf(
							"spectral clustering failed (%v); fell back to size-quantile grouping", err)},
						Fallback: true,
					},
					fmt.Sprintf("degraded: size-quantile fallback into %d groups", cfg.Groups), nil
			}
			return clusterArtifact{Labels: spec.Labels, Warnings: spec.Warnings},
				fmt.Sprintf("%d groups over %d jobs", cfg.Groups, len(spec.Labels)), nil
		},
	})

	p.Add(&engine.Stage{
		Name:  stages.ProfileGroups,
		Deps:  []string{stages.DAGJobs, stages.WLMatrix, stages.ClusterSpectral},
		Codec: cache.Gob[profileArtifact](),
		Run: func(in engine.Inputs) (any, string, error) {
			da, err := engine.In[dagJobsArtifact](in, stages.DAGJobs)
			if err != nil {
				return nil, "", err
			}
			ma, err := engine.In[matrixArtifact](in, stages.WLMatrix)
			if err != nil {
				return nil, "", err
			}
			ca, err := engine.In[clusterArtifact](in, stages.ClusterSpectral)
			if err != nil {
				return nil, "", err
			}
			sim := ma.Sim.Dense()
			art := profileArtifact{Groups: profileGroups(da.Graphs, da.Stats, sim, ca.Labels)}
			if dist, err := cluster.DistanceFromSimilarity(sim); err == nil {
				if s, err := cluster.Silhouette(dist, ca.Labels); err == nil {
					art.Silhouette = s
				}
			}
			return art, fmt.Sprintf("%d groups, silhouette %.3f", len(art.Groups), art.Silhouette), nil
		},
	})

	// Approximate-similarity stages, opt-in. They branch off dag.jobs —
	// not wl.features — because the ANN path embeds with feature hashing
	// (no shared dictionary), so the exact and approximate pipelines
	// only share the structural prefix.
	if cfg.ANN {
		sk := cfg.Sketch.Resolved()
		p.Add(&engine.Stage{
			Name:        stages.WLSketch,
			Deps:        []string{stages.DAGJobs},
			Fingerprint: fmt.Sprintf("wl:%+v sketch:%+v", cfg.WL, sk),
			Codec:       cache.Gob[sketchArtifact](),
			Run: func(in engine.Inputs) (any, string, error) {
				da, err := engine.In[dagJobsArtifact](in, stages.DAGJobs)
				if err != nil {
					return nil, "", err
				}
				vectors, err := wl.HashedFeatures(da.Graphs, cfg.WL, sk.Buckets, cfg.Workers)
				if err != nil {
					return nil, "", err
				}
				sigs, err := wl.Sketches(vectors, sk, cfg.Workers)
				if err != nil {
					return nil, "", err
				}
				return sketchArtifact{Vectors: vectors, Sigs: sigs},
					fmt.Sprintf("%d jobs sketched (%d hashes, %d bands, %d buckets)",
						len(sigs), sk.Hashes, sk.Bands, sk.Buckets), nil
			},
		})

		p.Add(&engine.Stage{
			Name:        stages.WLANNIndex,
			Deps:        []string{stages.DAGJobs, stages.WLSketch},
			Fingerprint: fmt.Sprintf("wl:%+v sketch:%+v", cfg.WL, sk),
			Codec:       cache.Gob[annArtifact](),
			Run: func(in engine.Inputs) (any, string, error) {
				da, err := engine.In[dagJobsArtifact](in, stages.DAGJobs)
				if err != nil {
					return nil, "", err
				}
				sa, err := engine.In[sketchArtifact](in, stages.WLSketch)
				if err != nil {
					return nil, "", err
				}
				jobIDs := make([]string, len(da.Graphs))
				for i, g := range da.Graphs {
					jobIDs[i] = g.JobID
				}
				ix, err := wl.NewANNIndexFromSketches(cfg.WL, sk, jobIDs, sa.Vectors, sa.Sigs)
				if err != nil {
					return nil, "", err
				}
				return annArtifact{Index: ix},
					fmt.Sprintf("%d jobs indexed across %d LSH bands", ix.Len(), sk.Bands), nil
			},
		})
	}

	return p
}

// Run executes the pipeline over the given trace jobs.
//
// The stage graph is declared by Config.plan and executed by
// internal/engine: every stage runs inside an obs span (aggregated
// under "pipeline" in the Default registry's stage tree) and is timed
// on Analysis.Stages; with a logger installed (obs.Default().SetLogger,
// the commands' -v flag) one structured record per stage carries the
// stage name, duration and key counts.
//
// With Config.CacheDir set, artifacts are persisted to a
// content-addressed store as each stage completes: a warm re-run with
// only downstream configuration changed (say Groups) loads the kernel
// matrix instead of recomputing it, and a run interrupted mid-stage
// resumes from the last completed artifact. Cached and cold runs
// produce identical analyses (see Analysis.Fingerprint).
func Run(jobs []trace.Job, cfg Config) (*Analysis, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := obs.Default()
	lg := reg.Logger()
	an := &Analysis{}

	if cfg.Ingest != nil {
		if cfg.Ingest.Partial {
			an.Partial = true
			an.Warnings = append(an.Warnings, fmt.Sprintf(
				"ingest: trace truncated (%v); analysis covers the %d rows read before the cut",
				cfg.Ingest.PartialCause, cfg.Ingest.Rows))
		}
		if cfg.Ingest.BadRows > 0 {
			an.Warnings = append(an.Warnings, fmt.Sprintf(
				"ingest: %d malformed rows skipped (%s)", cfg.Ingest.BadRows, cfg.Ingest.Summary()))
		}
	}

	var store *cache.Store
	if cfg.CacheDir != "" {
		var err error
		store, err = cache.Open(cfg.CacheDir)
		if err != nil {
			// An unusable cache degrades to an uncached run; it must not
			// abort an analysis that can complete without it.
			an.Warnings = append(an.Warnings, fmt.Sprintf("artifact cache disabled: %v", err))
			lg.Warn("artifact cache disabled; running uncached", "dir", cfg.CacheDir, "err", err)
		}
	}

	// Per-job wall times for slow-job exemplars: collected outside the
	// artifact path so caching and fingerprints stay timing-free. A nil
	// collector (capture disabled) skips the per-job clock reads.
	var times *jobTimes
	if cfg.slowJobK() > 0 {
		times = &jobTimes{}
	}

	root := reg.StartSpan(stages.Pipeline)
	defer root.End()
	res, err := cfg.plan(jobs, lg, times).Execute(engine.Options{Store: store, Parent: root, Logger: lg})
	if res != nil {
		an.Stages = res.Executed
		an.CachedStages = append([]string(nil), res.Cached...)
		an.indexStages()
	}
	if err != nil {
		return nil, err
	}

	fa, err := engine.ArtifactAs[filterArtifact](res, stages.SamplingFilter)
	if err != nil {
		return nil, err
	}
	sa, err := engine.ArtifactAs[sampleArtifact](res, stages.SamplingSample)
	if err != nil {
		return nil, err
	}
	da, err := engine.ArtifactAs[dagJobsArtifact](res, stages.DAGJobs)
	if err != nil {
		return nil, err
	}
	fe, err := engine.ArtifactAs[featuresArtifact](res, stages.WLFeatures)
	if err != nil {
		return nil, err
	}
	ma, err := engine.ArtifactAs[matrixArtifact](res, stages.WLMatrix)
	if err != nil {
		return nil, err
	}
	ca, err := engine.ArtifactAs[clusterArtifact](res, stages.ClusterSpectral)
	if err != nil {
		return nil, err
	}
	pa, err := engine.ArtifactAs[profileArtifact](res, stages.ProfileGroups)
	if err != nil {
		return nil, err
	}

	if cfg.ANN {
		ska, err := engine.ArtifactAs[sketchArtifact](res, stages.WLSketch)
		if err != nil {
			return nil, err
		}
		aa, err := engine.ArtifactAs[annArtifact](res, stages.WLANNIndex)
		if err != nil {
			return nil, err
		}
		an.HashedVectors = ska.Vectors
		an.ANNIndex = aa.Index
	}

	an.Sample = sa.Sample
	an.Graphs = da.Graphs
	an.JobStats = da.Stats
	an.FilterStats = fa.Stats
	an.Similarity = ma.Sim.Dense()
	an.Labels = ca.Labels
	an.Warnings = append(an.Warnings, ca.Warnings...)
	an.Groups = pa.Groups
	an.Silhouette = pa.Silhouette
	an.wlOpts = cfg.WL
	an.dict = fe.Dict
	an.vectors = fe.Vectors

	if k := cfg.slowJobK(); k > 0 {
		an.SlowJobs = slowJobs(times, an, k)
		publishSlowJobs(reg, an.SlowJobs, k)
	}

	if len(an.Warnings) > 0 {
		obsDegradedRuns.Add(1)
		for _, w := range an.Warnings {
			lg.Warn("analysis degraded", "warning", w)
		}
	}
	return an, nil
}
