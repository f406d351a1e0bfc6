// Benchmarks regenerating every table and figure of the paper, one
// bench per experiment in DESIGN.md's index, plus the ablation benches
// (A1–A5). Run with:
//
//	go test -bench=. -benchmem
package jobgraph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/features"
	"jobgraph/internal/ged"
	"jobgraph/internal/obs"
	"jobgraph/internal/obs/flight"
	"jobgraph/internal/pattern"
	"jobgraph/internal/sampling"
	"jobgraph/internal/sched"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

const benchWindow = 2 * 8 * 24 * 3600

// fixture holds the shared benchmark inputs, generated once.
type fixture struct {
	jobs     []trace.Job
	cands    []sampling.Candidate
	graphs   []*dag.Graph // full eligible set
	sample   []*dag.Graph // paper-scale 100-job sample
	analysis *core.Analysis
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(5000, 1))
		if err != nil {
			fixErr = err
			return
		}
		cands, _, err := sampling.Filter(jobs, sampling.PaperCriteria(benchWindow))
		if err != nil {
			fixErr = err
			return
		}
		an, err := core.Run(jobs, core.DefaultConfig(benchWindow, 1))
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{
			jobs:     jobs,
			cands:    cands,
			graphs:   sampling.Graphs(cands),
			sample:   an.Graphs,
			analysis: an,
		}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// BenchmarkFig2BuildDAGs measures DAG construction from trace task rows
// (E1): the name-decoding and graph-building cost per trace.
func BenchmarkFig2BuildDAGs(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range f.jobs[:500] {
			specs := make([]dag.TaskSpec, 0, len(j.Tasks))
			for _, t := range j.Tasks {
				specs = append(specs, dag.TaskSpec{Name: t.TaskName, Duration: t.Duration()})
			}
			if _, err := dag.FromTasks(j.Name, specs, dag.BuildOptions{SkipMissingDeps: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3Conflation regenerates the before/after size table (E2).
func BenchmarkFig3Conflation(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig3Conflation(f.graphs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Features regenerates the raw per-size-group feature
// table (E3).
func BenchmarkFig4Features(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FigSizeGroupFeatures(f.graphs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5FeaturesConflated regenerates the conflated per-size-
// group feature table (E4).
func BenchmarkFig5FeaturesConflated(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FigSizeGroupFeatures(f.graphs, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bPatternCensus regenerates the §V-B shape shares (E5).
func BenchmarkFig5bPatternCensus(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census := pattern.NewCensus()
		for _, g := range f.graphs {
			if err := census.Add(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6TaskTypes regenerates the M/J/R distribution (E6).
func BenchmarkFig6TaskTypes(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Fig6TaskTypes(f.analysis)
	}
}

// BenchmarkFig7KernelMatrix regenerates the 100×100 WL similarity map
// (E7) — the pipeline's computational core.
func BenchmarkFig7KernelMatrix(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wl.KernelMatrix(f.sample, wl.DefaultOptions(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Clustering regenerates the spectral clustering on the
// precomputed similarity matrix (E8).
func BenchmarkFig8Clustering(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Spectral(f.analysis.Similarity, cluster.SpectralOptions{
			K:      5,
			KMeans: cluster.KMeansOptions{Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9GroupProfiles regenerates the full pipeline including
// group profiling (E9).
func BenchmarkFig9GroupProfiles(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(f.jobs, core.DefaultConfig(benchWindow, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWLDepth measures kernel cost as the refinement depth
// h grows (A1).
func BenchmarkAblationWLDepth(b *testing.B) {
	f := getFixture(b)
	for h := 0; h <= 5; h++ {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			opt := wl.Options{Iterations: h, UseTypeLabels: true}
			for i := 0; i < b.N; i++ {
				if _, err := wl.KernelMatrix(f.sample, opt, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGEDvsWL contrasts one pairwise comparison under
// exact GED, beam GED and the WL kernel on small jobs (A2) — the
// paper's cost argument for kernels.
func BenchmarkAblationGEDvsWL(b *testing.B) {
	f := getFixture(b)
	var small []*dag.Graph
	for _, g := range f.graphs {
		if g.Size() >= 4 && g.Size() <= 7 {
			small = append(small, g)
		}
		if len(small) == 2 {
			break
		}
	}
	if len(small) < 2 {
		b.Skip("no small job pair in fixture")
	}
	x, y := small[0], small[1]
	b.Run("ged-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ged.Exact(x, y, ged.DefaultCosts(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ged-beam", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ged.Beam(x, y, ged.DefaultCosts(), 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ged-bipartite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ged.Bipartite(x, y, ged.DefaultCosts()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wl.GraphSimilarity(x, y, wl.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKernelParallel sweeps the kernel-matrix worker count
// (A3).
func BenchmarkAblationKernelParallel(b *testing.B) {
	f := getFixture(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wl.KernelMatrix(f.sample, wl.DefaultOptions(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBaseKernel contrasts the subtree and shortest-path
// base kernels on the paper-scale matrix (A6).
func BenchmarkAblationBaseKernel(b *testing.B) {
	f := getFixture(b)
	for _, base := range []wl.BaseKernel{wl.BaseSubtree, wl.BaseShortestPath} {
		b.Run(base.String(), func(b *testing.B) {
			opt := wl.Options{Iterations: 3, UseTypeLabels: true, Base: base}
			for i := 0; i < b.N; i++ {
				if _, err := wl.KernelMatrix(f.sample, opt, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineFeatureKMeans measures the prior-work baseline:
// k-means over standardized statistical features (A4).
func BenchmarkBaselineFeatureKMeans(b *testing.B) {
	f := getFixture(b)
	pts, err := features.Matrix(f.sample)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := features.Standardize(pts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, cluster.KMeansOptions{K: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHashedFeatures contrasts the shared-dictionary walk
// with lock-free hashed embedding (A8).
func BenchmarkAblationHashedFeatures(b *testing.B) {
	f := getFixture(b)
	b.Run("dictionary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wl.Features(f.sample, wl.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hashed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wl.HashedFeatures(f.sample, wl.DefaultOptions(), 1<<20, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineKMedoids measures PAM clustering on the WL kernel
// distances (A4 comparator).
func BenchmarkBaselineKMedoids(b *testing.B) {
	f := getFixture(b)
	dist, err := cluster.DistanceFromSimilarity(f.analysis.Similarity)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMedoids(dist, cluster.KMedoidsOptions{K: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineHierarchical measures UPGMA agglomeration on the WL
// kernel distances (A4 comparator).
func BenchmarkBaselineHierarchical(b *testing.B) {
	f := getFixture(b)
	dist, err := cluster.DistanceFromSimilarity(f.analysis.Similarity)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Hierarchical(dist, 5, cluster.AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexQuery measures a nearest-neighbour lookup of a graph
// (embed, sketch, probe, re-rank) against a 100-job similarity index
// (the similarity-search application).
func BenchmarkIndexQuery(b *testing.B) {
	f := getFixture(b)
	ix, err := wl.NewANNIndex(wl.DefaultOptions(), wl.DefaultSketchOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i, g := range f.sample {
		c := g.Clone()
		c.JobID = fmt.Sprintf("job-%d", i)
		if err := ix.AddGraph(c); err != nil {
			b.Fatal(err)
		}
	}
	query := f.sample[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.QueryGraph(query, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// annBenchCorpus synthesizes n hashed WL embeddings shaped like the
// prototype-plus-perturbation population the scale probe uses, sketches
// them, and loads them into a built ANN index.
func annBenchCorpus(b *testing.B, n int) (*wl.ANNIndex, []string) {
	b.Helper()
	opt := wl.SketchOptions{Buckets: 1 << 20, Hashes: 64, Bands: 32, Seed: 7}
	rng := rand.New(rand.NewSource(7))
	protos := make([][]int32, 512)
	for i := range protos {
		keys := make([]int32, 12+rng.Intn(24))
		for j := range keys {
			keys[j] = int32(rng.Intn(1 << 20))
		}
		protos[i] = keys
	}
	vecs := make([]wl.CompactVector, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v := make(map[int32]float64)
		for _, k := range protos[rng.Intn(len(protos))] {
			v[k] = float64(1 + rng.Intn(3))
		}
		v[int32(rng.Intn(1<<20))] = 1
		keys := make([]int32, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		vals := make([]float64, len(keys))
		for j, k := range keys {
			vals[j] = v[k]
		}
		vecs[i] = wl.CompactVector{Keys: keys, Vals: vals}
		ids[i] = fmt.Sprintf("bench-job-%d", i)
	}
	sigs, err := wl.Sketches(vecs, opt, 0)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := wl.NewANNIndexFromSketches(wl.DefaultOptions(), opt, ids, vecs, sigs)
	if err != nil {
		b.Fatal(err)
	}
	ix.Build()
	return ix, ids
}

// BenchmarkANNQuery measures a banded-LSH top-k query (candidate lookup
// plus exact cosine re-rank) against a 100k-job sketch index — the
// sublinear path that replaces an O(n) scan of every vector at scale.
func BenchmarkANNQuery(b *testing.B) {
	ix, ids := annBenchCorpus(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.QueryJob(ids[i%len(ids)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchCluster measures mini-batch k-means over 20k hashed
// embeddings — the sketch-space clustering that stands in for exact
// spectral beyond the 100-job reference scale.
func BenchmarkSketchCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]wl.CompactVector, 20_000)
	for i := range pts {
		base := (i % 5) * 40
		v := make(map[int32]float64, 12)
		for j := 0; j < 10; j++ {
			v[int32(base+rng.Intn(40))] = float64(1 + rng.Intn(3))
		}
		v[int32(200+rng.Intn(1<<16))] = 1
		for k := range v {
			pts[i].Keys = append(pts[i].Keys, k)
		}
		slices.Sort(pts[i].Keys)
		for _, k := range pts[i].Keys {
			pts[i].Vals = append(pts[i].Vals, v[k])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.MiniBatchKMeans(pts, cluster.MiniBatchKMeansOptions{K: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplicationPlacement measures instance placement under each
// policy (E12).
func BenchmarkApplicationPlacement(b *testing.B) {
	f := getFixture(b)
	n := len(f.cands)
	if n > 300 {
		n = 300
	}
	jobs := make([]sched.PlacementJob, 0, n)
	for i := 0; i < n; i++ {
		total := 0
		for _, id := range f.cands[i].Graph.NodeIDs() {
			total += f.cands[i].Graph.Node(id).Instances
		}
		jobs = append(jobs, sched.PlacementJob{
			JobID: f.cands[i].Job.Name, Group: "G", Instances: total,
		})
	}
	for _, pol := range []sched.PlacementPolicy{
		sched.RandomPlacement, sched.LeastLoadedPlacement, sched.GroupPackedPlacement,
	} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Place(jobs, sched.PlacementOptions{
					Machines: 400, Policy: pol, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplicationScheduling runs the scheduling simulation under
// each policy (A5).
func BenchmarkApplicationScheduling(b *testing.B) {
	f := getFixture(b)
	n := len(f.cands)
	if n > 300 {
		n = 300
	}
	specs := make([]sched.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		g := f.cands[i].Graph
		cpd, err := g.CriticalPathDuration()
		if err != nil {
			b.Fatal(err)
		}
		start, _, _ := f.cands[i].Job.Window()
		specs = append(specs, sched.JobSpec{
			Graph:         g,
			Arrival:       float64(start) / 1000,
			GroupPriority: -cpd,
		})
	}
	for _, pol := range []sched.Policy{sched.FIFO, sched.CriticalPathFirst, sched.GroupAware} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Simulate(specs, sched.Options{Slots: 16, Policy: pol}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstrumentedWL quantifies the observability tax on the
// pipeline's hot path: the paper-scale WL kernel matrix wrapped in a
// span, with the Default registry enabled (the production default) and
// disabled. Instrumentation is deliberately per-call — one span, one
// counter add, one histogram observation per matrix — so the enabled
// tax must stay under 2% of kernel runtime, and disabling the registry
// reduces every hook to a single atomic load.
func BenchmarkInstrumentedWL(b *testing.B) {
	f := getFixture(b)
	reg := obs.Default()
	kernel := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := reg.StartSpan("bench.wl.kernel")
			if _, err := wl.KernelMatrix(f.sample, wl.DefaultOptions(), 0); err != nil {
				b.Fatal(err)
			}
			sp.End()
		}
	}
	b.Run("enabled", func(b *testing.B) {
		reg.SetEnabled(true)
		kernel(b)
	})
	// The flight recorder observes every span begin/end into its
	// bounded ring — the production default once a session starts. Its
	// tax rides on the same <2% budget as the base instrumentation.
	b.Run("flight", func(b *testing.B) {
		reg.SetEnabled(true)
		rec := flight.NewRecorder(reg, flight.DefaultCapacity)
		rec.SetRunInfo("bench", "bench")
		reg.SetObserver(rec)
		defer reg.SetObserver(nil)
		kernel(b)
	})
	b.Run("disabled", func(b *testing.B) {
		reg.SetEnabled(false)
		defer reg.SetEnabled(true)
		kernel(b)
	})
}
