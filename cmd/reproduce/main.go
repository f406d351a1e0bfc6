// Command reproduce runs every experiment in the paper end-to-end on a
// synthetic trace and prints paper-reported versus measured values for
// each figure, plus the ablations described in DESIGN.md. Its output is
// the source for EXPERIMENTS.md.
//
// Usage:
//
//	reproduce [-trace batch_task.csv | -gen 20000] [-seed 1] [-out results/]
//	          [-workers N] [-cache-dir .jobgraph-cache] [-no-cache] [-ann]
//	          [-v] [-log-json] [-debug-addr localhost:6060]
//	          [-trace-out trace.json] [-ledger results/runs/ledger.jsonl]
//
// -workers spreads the parallel stages (trace decode, job grouping,
// candidate filtering, per-job DAG metrics, the WL kernel matrix)
// across that many goroutines; 0 uses every CPU and 1 forces the
// sequential pipeline, which produces bit-identical output.
//
// -cache-dir persists completed pipeline-stage artifacts to a
// content-addressed store and reuses them on re-runs whose upstream
// configuration matches; -no-cache forces a cold run for baselines.
//
// With -out, a metrics.json snapshot of every pipeline counter, span
// and histogram is written next to the CSV artifacts. -trace-out emits
// a timeline that loads in ui.perfetto.dev, and -ledger appends the
// run's snapshot to the JSONL history cmd/benchdiff compares.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jobgraph/internal/cli"
	"jobgraph/internal/cluster"
	"jobgraph/internal/coloc"
	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/features"
	"jobgraph/internal/ged"
	"jobgraph/internal/pattern"
	"jobgraph/internal/report"
	"jobgraph/internal/resource"
	"jobgraph/internal/sampling"
	"jobgraph/internal/sched"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

func main() { cli.Run(run) }

func run() error {
	var (
		tracePath = flag.String("trace", "", "batch_task CSV (.gz supported; empty: generate)")
		gen       = flag.Int("gen", 20000, "jobs to generate when no trace given")
		seed      = flag.Int64("seed", 1, "RNG seed")
		outDir    = flag.String("out", "", "optional output directory for CSV artifacts and metrics.json")
		ann       = flag.Bool("ann", false, "also sketch the sample and build the banded-LSH index (wl.sketch/wl.annindex stages)")
	)
	pf := cli.RegisterPipelineFlags("reproduce", true)
	flag.Parse()

	sess, err := pf.Start()
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}
	defer sess.Close()
	defer pf.Close()

	readOpts, err := pf.ReadOptions()
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("reproduce: %v", err)
		}
		// Deferred so the snapshot also lands when a later stage fails.
		defer func() {
			if err := cli.WriteMetrics(*outDir); err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: metrics snapshot: %v\n", err)
			}
		}()
	}

	jobs, istats, err := cli.LoadOrGenerateOpts(*tracePath, *gen, *seed, readOpts)
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}
	if istats != nil && (istats.BadRows > 0 || istats.Partial) {
		fmt.Printf("== Ingest ==\n%s\n\n", istats.Summary())
	}

	cands, fstats, err := sampling.FilterParallel(jobs, sampling.PaperCriteria(cli.TraceWindow()), *pf.Workers)
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}
	graphs := sampling.Graphs(cands)
	fmt.Printf("== Trace ==\n%d jobs generated, %d eligible DAG jobs\n", len(jobs), len(cands))
	fmt.Printf("rejections: integrity=%d availability=%d non-DAG=%d no-window=%d\n\n",
		fstats.NotTerminated, fstats.OutsideWindow, fstats.NonDAG, fstats.NoWindow)

	cfg := core.DefaultConfig(cli.TraceWindow(), *seed)
	cfg.Ingest = istats
	cfg.ANN = *ann
	pf.Configure(&cfg)
	an, err := core.Run(jobs, cfg)
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}
	for _, w := range an.Warnings {
		sess.AddWarning(w)
	}
	if len(an.Warnings) > 0 {
		fmt.Printf("== Degraded run ==\n")
		for _, w := range an.Warnings {
			fmt.Printf("warning: %s\n", w)
		}
		fmt.Println()
	}

	if an.ANNIndex != nil {
		fmt.Printf("== ANN ==\nsketch index over %d jobs (%d hashes, %d bands)\n\n",
			an.ANNIndex.Len(), an.ANNIndex.Options().Hashes, an.ANNIndex.Options().Bands)
	}

	runE0(jobs)
	runE1(an)
	runE2(graphs, *outDir)
	runE3E4(graphs)
	runE5(graphs)
	runE6(an)
	runE7(an, *outDir)
	runE8E9(an, *outDir)
	runA1(an)
	runA2(an)
	runA3(an)
	runA4(an, *seed)
	runA5(cands, *seed)
	runA6(an)
	runA7(jobs, *seed)
	runA8(an)
	runE10(graphs)
	model, err := core.ExtractModel(an, cfg.Conflate)
	if err != nil {
		return fmt.Errorf("reproduce: %v", err)
	}
	runE11(model, cands, *seed)
	runE12(model, cands, *seed)
	return nil
}

func must(err error) {
	if err != nil {
		cli.Fatalf("reproduce: %v", err)
	}
}

func runE0(jobs []trace.Job) {
	fmt.Println("== E0 (§II-B): dependency share of the batch workload ==")
	split, err := resource.SplitByDependency(jobs)
	must(err)
	fmt.Printf("DAG jobs: %.1f%% of jobs, %.1f%% of CPU-time, %.1f%% of memory-time\n",
		100*split.DAGJobShare(), 100*split.DAGCPUShare(), 100*split.DAGMemShare())
	fmt.Println("paper: ~50% of batch jobs have dependencies and consume 70-80% of resources")
	fmt.Println()
}

func runE1(an *core.Analysis) {
	fmt.Println("== E1 (Fig 2): job-level DAG abstraction ==")
	fmt.Printf("sample of %d jobs; first job (%s) level structure:\n%s",
		len(an.Graphs), an.Graphs[0].JobID, an.Graphs[0].ASCII())
	fmt.Printf("(DOT renderings available via Fig2DOT / clusterjobs -dot-dir)\n\n")
}

func runE2(graphs []*dag.Graph, outDir string) {
	fmt.Println("== E2 (Fig 3): size distribution before/after conflation ==")
	tbl, err := core.Fig3Conflation(graphs)
	must(err)
	fmt.Println(tbl)
	fmt.Println("paper: the ratio of smaller jobs increases after the merge operation")
	writeCSV(outDir, "fig3_conflation.csv", tbl)
	fmt.Println()
}

func runE3E4(graphs []*dag.Graph) {
	fmt.Println("== E3/E4 (Figs 4/5): per-size-group features ==")
	for _, conflated := range []bool{false, true} {
		rows, err := core.FigSizeGroupFeatures(graphs, conflated)
		must(err)
		title := "Fig 4: before conflation"
		if conflated {
			title = "Fig 5: after conflation"
		}
		fmt.Println(core.FigSizeGroupTable(rows, title))
	}
	fmt.Println("paper: job counts decrease with size; max critical path 2-8, sub-linear;")
	fmt.Println("       max width grows with size (extreme: 30 of 31 tasks parallel)")
	fmt.Println()
}

func runE5(graphs []*dag.Graph) {
	fmt.Println("== E5 (§V-B): pattern census ==")
	tbl, census, err := core.PatternCensusTable(graphs)
	must(err)
	fmt.Println(tbl)
	fmt.Printf("paper: chain 58%%, inverted triangle 37%%; measured: chain %.1f%%, inverted triangle %.1f%%\n\n",
		100*census.Fraction(pattern.Chain), 100*census.Fraction(pattern.InvertedTriangle))
}

func runE6(an *core.Analysis) {
	fmt.Println("== E6 (Fig 6): M/J/R task-type distribution ==")
	var m, j, r int
	for _, g := range an.Graphs {
		c := g.TypeCounts()
		m += c["M"]
		j += c["J"]
		r += c["R"]
	}
	fmt.Printf("aggregate over %d jobs: M=%d J=%d R=%d\n", len(an.Graphs), m, j, r)
	fmt.Println("paper: chains deploy more R than M beyond 4 tasks; joins appear in multi-input middles")
	models, _, err := core.ModelCensusTable(an.Graphs)
	must(err)
	fmt.Println(models)
	fmt.Println("paper: plain Map-Reduce dominates small jobs; larger jobs combine")
	fmt.Println("       Map-Reduce and Map-Join-Reduce frameworks")
	fmt.Println()
}

func runE7(an *core.Analysis, outDir string) {
	fmt.Println("== E7 (Fig 7): WL similarity map ==")
	n := an.Similarity.Rows
	var sum float64
	exactOnes := 0
	for i := 0; i < n; i++ {
		for jj := 0; jj < n; jj++ {
			v := an.Similarity.At(i, jj)
			sum += v
			if i != jj && v == 1 {
				exactOnes++
			}
		}
	}
	fmt.Printf("%dx%d matrix, mean similarity %.3f, %d exact-1.0 off-diagonal pairs\n",
		n, n, sum/float64(n*n), exactOnes/2)
	fmt.Println("paper: small chain jobs form exact-similarity blocks; values in [0,1]")
	if outDir != "" {
		f, err := os.Create(filepath.Join(outDir, "fig7_similarity.csv"))
		must(err)
		must(report.WriteMatrixCSV(f, an.Similarity))
		must(f.Close())
	}
	fmt.Println()
}

func runE8E9(an *core.Analysis, outDir string) {
	fmt.Println("== E8/E9 (Figs 8/9): spectral groups ==")
	tbl := core.Fig9GroupTable(an)
	fmt.Println(tbl)
	plots, err := core.Fig9BoxPlots(an)
	must(err)
	fmt.Println(plots)
	fmt.Printf("silhouette: %.3f\n", an.Silhouette)
	if k, err := cluster.ChooseK(an.Similarity, 2, 10); err == nil {
		fmt.Printf("eigengap-selected K: %d (paper fixes K=5 by inspection)\n", k)
	}
	rho, err := core.SizeWidthCorrelation(an)
	must(err)
	fmt.Printf("size-width Spearman: %.3f (paper: positively correlated)\n", rho)
	fmt.Println("paper: group A holds ~75% of jobs, 90.6% short, 91% chains; B mean size ~1.55x A;")
	fmt.Println("       D has the largest structural metrics; C/E are diffuse (divergent)")
	writeCSV(outDir, "fig9_groups.csv", tbl)
	fmt.Println()
	fmt.Println(core.GroupResourceTable(an))
	fmt.Println("extension: per-group demand profiles (the paper's stated future work)")
	fmt.Println()
}

func runA1(an *core.Analysis) {
	fmt.Println("== A1: WL iteration-depth ablation ==")
	// Compare the similarity matrix at increasing h against h=5.
	graphs := an.Graphs
	ref, err := wl.KernelMatrix(graphs, wl.Options{Iterations: 5, UseTypeLabels: true}, 0)
	must(err)
	for h := 0; h <= 4; h++ {
		m, err := wl.KernelMatrix(graphs, wl.Options{Iterations: h, UseTypeLabels: true}, 0)
		must(err)
		var diff, cnt float64
		for i := range m.Data {
			d := m.Data[i] - ref.Data[i]
			if d < 0 {
				d = -d
			}
			diff += d
			cnt++
		}
		fmt.Printf("h=%d: mean |sim - sim_h5| = %.4f\n", h, diff/cnt)
	}
	fmt.Println("expected: differences shrink as h grows (refinement converges)")
	fmt.Println()
}

func runA2(an *core.Analysis) {
	fmt.Println("== A2: GED baseline vs WL kernel ==")
	// Use the small jobs only (exact GED is exponential — the paper's
	// argument for kernels).
	var small []*dag.Graph
	for _, g := range an.Graphs {
		if g.Size() <= 7 {
			small = append(small, g)
		}
		if len(small) == 12 {
			break
		}
	}
	if len(small) < 4 {
		fmt.Println("not enough small jobs for exact GED; skipping")
		return
	}
	start := time.Now()
	pairs := 0
	var exactSum float64
	for i := 0; i < len(small); i++ {
		for j := i + 1; j < len(small); j++ {
			d, err := ged.Exact(small[i], small[j], ged.DefaultCosts(), 0)
			must(err)
			exactSum += d
			pairs++
		}
	}
	gedTime := time.Since(start)

	start = time.Now()
	var bpSum float64
	for i := 0; i < len(small); i++ {
		for j := i + 1; j < len(small); j++ {
			d, err := ged.Bipartite(small[i], small[j], ged.DefaultCosts())
			must(err)
			bpSum += d
		}
	}
	bpTime := time.Since(start)

	start = time.Now()
	_, err := wl.KernelMatrix(small, wl.DefaultOptions(), 1)
	must(err)
	wlTime := time.Since(start)
	fmt.Printf("%d jobs (size<=7), %d pairs:\n", len(small), pairs)
	fmt.Printf("exact GED     %10v (mean distance %.2f)\n", gedTime, exactSum/float64(pairs))
	fmt.Printf("bipartite GED %10v (mean distance %.2f, upper bound)\n", bpTime, bpSum/float64(pairs))
	fmt.Printf("WL matrix     %10v (%.0fx faster than exact)\n", wlTime, float64(gedTime)/float64(wlTime))
	fmt.Println("paper: edit distance cost is exponential in nodes — less effective than kernels")
	fmt.Println()
}

func runA3(an *core.Analysis) {
	fmt.Println("== A3: kernel matrix parallel fan-out ==")
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		_, err := wl.KernelMatrix(an.Graphs, wl.DefaultOptions(), w)
		must(err)
		fmt.Printf("workers=%d: %v\n", w, time.Since(start))
	}
	fmt.Println()
}

func runA4(an *core.Analysis, seed int64) {
	fmt.Println("== A4: clustering method comparison (reference: spectral-on-WL) ==")
	k := len(an.Groups)

	// Feature-space k-means (the prior-work baseline).
	pts, err := features.Matrix(an.Graphs)
	must(err)
	_, _, err = features.Standardize(pts)
	must(err)
	km, err := cluster.KMeans(pts, cluster.KMeansOptions{K: k, Seed: seed})
	must(err)

	// Topology-aware alternatives on the same WL kernel distances.
	dist, err := cluster.DistanceFromSimilarity(an.Similarity)
	must(err)
	kmed, err := cluster.KMedoids(dist, cluster.KMedoidsOptions{K: k, Seed: seed})
	must(err)
	hier, err := cluster.Hierarchical(dist, k, cluster.AverageLinkage)
	must(err)

	for _, alt := range []struct {
		name   string
		labels []int
	}{
		{"kmeans-features", km.Labels},
		{"kmedoids-WL", kmed.Labels},
		{"hierarchical-WL", hier.Labels},
	} {
		ari, err := cluster.ARI(alt.labels, an.Labels)
		must(err)
		nmi, err := cluster.NMI(alt.labels, an.Labels)
		must(err)
		sil, err := cluster.Silhouette(dist, alt.labels)
		must(err)
		fmt.Printf("%-16s ARI=%.3f NMI=%.3f silhouette=%.3f\n", alt.name+":", ari, nmi, sil)
	}
	fmt.Printf("%-16s silhouette=%.3f\n", "spectral-WL:", an.Silhouette)
	fmt.Println("expected: WL-based methods largely agree with each other; the feature-space")
	fmt.Println("          baseline diverges — it sees sizes/durations, not topology")
	fmt.Println()
}

func runA5(cands []sampling.Candidate, seed int64) {
	fmt.Println("== A5: scheduling application ==")
	n := len(cands)
	if n > 500 {
		n = 500
	}
	specs := make([]sched.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		g := cands[i].Graph
		cpd, err := g.CriticalPathDuration()
		must(err)
		start, _, _ := cands[i].Job.Window()
		// Compress the 8-day submission spread by 1000x so the cluster
		// actually contends — policies only differ under backlog.
		//
		// GroupPriority encodes the structural knowledge clustering
		// provides: jobs from short-critical-path groups (the dominant
		// small-chain group A) are predicted quick and boosted —
		// shortest-predicted-first, which minimizes mean completion.
		specs = append(specs, sched.JobSpec{
			Graph:         g,
			Arrival:       float64(start) / 1000,
			GroupPriority: -cpd,
		})
	}
	for _, pol := range []sched.Policy{sched.FIFO, sched.CriticalPathFirst, sched.GroupAware} {
		res, err := sched.Simulate(specs, sched.Options{Slots: 16, Policy: pol})
		must(err)
		fmt.Printf("%-14s mean completion %10.1fs  makespan %10.1fs\n",
			pol.String()+":", res.MeanCompletion, res.Makespan)
	}
	fmt.Println("expected: group-aware (predicted-short-first) cuts mean completion vs FIFO;")
	fmt.Println("          critical-path-first trades mean completion for makespan")
	fmt.Println()
	_ = seed
}

func runA6(an *core.Analysis) {
	fmt.Println("== A6: subtree vs shortest-path base kernel ==")
	sub, err := wl.KernelMatrix(an.Graphs, wl.Options{Iterations: 3, UseTypeLabels: true, Base: wl.BaseSubtree}, 0)
	must(err)
	sp, err := wl.KernelMatrix(an.Graphs, wl.Options{Iterations: 3, UseTypeLabels: true, Base: wl.BaseShortestPath}, 0)
	must(err)
	var diff, cnt float64
	for i := range sub.Data {
		d := sub.Data[i] - sp.Data[i]
		if d < 0 {
			d = -d
		}
		diff += d
		cnt++
	}
	fmt.Printf("mean |subtree - shortest-path| similarity: %.4f\n", diff/cnt)

	// Do both bases induce the same clustering?
	ka, err := cluster.Spectral(sub, cluster.SpectralOptions{K: 5, KMeans: cluster.KMeansOptions{Seed: 1}})
	must(err)
	kb, err := cluster.Spectral(sp, cluster.SpectralOptions{K: 5, KMeans: cluster.KMeansOptions{Seed: 1}})
	must(err)
	ari, err := cluster.ARI(ka.Labels, kb.Labels)
	must(err)
	fmt.Printf("clustering agreement across bases: ARI=%.3f\n", ari)
	fmt.Println("expected: high agreement — both bases capture the same coarse topology")
	fmt.Println()
}

func runA7(jobs []trace.Job, seed int64) {
	fmt.Println("== A7: conflate before kernel vs raw graphs ==")
	raw, err := core.Run(jobs, core.DefaultConfig(cli.TraceWindow(), seed))
	must(err)
	cfg := core.DefaultConfig(cli.TraceWindow(), seed)
	cfg.Conflate = true
	conf, err := core.Run(jobs, cfg)
	must(err)
	ari, err := cluster.ARI(raw.Labels, conf.Labels)
	must(err)
	fmt.Printf("clustering agreement raw vs conflated: ARI=%.3f\n", ari)
	fmt.Printf("silhouette raw %.3f vs conflated %.3f\n", raw.Silhouette, conf.Silhouette)
	fmt.Println("expected: conflation merges shard-level detail, so groups shift toward")
	fmt.Println("          stage-level topology (moderate but non-trivial agreement)")
	fmt.Println()
}

func runA8(an *core.Analysis) {
	fmt.Println("== A8: dictionary vs hashed feature extraction ==")
	opt := wl.DefaultOptions()
	for _, buckets := range []int{1 << 8, 1 << 12, 1 << 20} {
		rate, err := wl.CollisionRate(an.Graphs, opt, buckets)
		must(err)
		hashed, err := wl.HashedFeatures(an.Graphs, opt, buckets, 0)
		must(err)
		sym, err := wl.SymMatrixFromCompactOpts(hashed, wl.MatrixOptions{})
		must(err)
		hm := sym.Dense()
		var diff, cnt float64
		for i := range hm.Data {
			d := hm.Data[i] - an.Similarity.Data[i]
			if d < 0 {
				d = -d
			}
			diff += d
			cnt++
		}
		fmt.Printf("buckets=2^%-2d label collision rate %.4f, mean |sim diff| %.5f\n",
			log2(buckets), rate, diff/cnt)
	}
	fmt.Println("expected: distortion vanishes as the bucket space grows; hashing")
	fmt.Println("          removes the shared dictionary so embedding parallelizes")
	fmt.Println()
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func runE10(graphs []*dag.Graph) {
	fmt.Println("== E10 (extension): dependency over-specification in task names ==")
	var totalEdges, totalRedundant, jobsWithRedundant int
	for _, g := range graphs {
		r, err := g.RedundantEdges()
		must(err)
		totalEdges += g.NumEdges()
		totalRedundant += r
		if r > 0 {
			jobsWithRedundant++
		}
	}
	fmt.Printf("%d of %d edges (%.1f%%) are transitively implied; %.1f%% of jobs carry at least one\n",
		totalRedundant, totalEdges, 100*float64(totalRedundant)/float64(totalEdges),
		100*float64(jobsWithRedundant)/float64(len(graphs)))
	fmt.Println("(the paper's own example R5_4_3_2_1 encodes 2 implied edges)")
	fmt.Println()
}

func runE11(model *core.Model, cands []sampling.Candidate, seed int64) {
	fmt.Println("== E11 (extension): group co-location on machines ==")
	// Label a slice of the eligible population by nearest group
	// centroid (the serving model's classifier), then check which
	// groups share machines.
	n := len(cands)
	if n > 1500 {
		n = 1500
	}
	jobGroup := make(map[string]string, n)
	var records []trace.TaskRecord
	for i := 0; i < n; i++ {
		gp, _, err := model.Classify(cands[i].Graph)
		must(err)
		jobGroup[cands[i].Job.Name] = gp.Name
		records = append(records, cands[i].Job.Tasks...)
	}
	instances, err := tracegen.GenerateInstances(records, tracegen.DefaultInstanceConfig(seed))
	must(err)
	res, err := coloc.Analyze(instances, jobGroup)
	must(err)
	imb, err := resource.LoadImbalance(instances)
	must(err)
	fmt.Printf("%d machines host labeled instances; placement Gini %.3f\n", res.Machines, imb)
	for _, ov := range res.Overlaps {
		fmt.Printf("groups %s+%s: observed %4d machines, expected %7.1f, lift %.2f\n",
			ov.GroupA, ov.GroupB, ov.Observed, ov.Expected, ov.Lift)
	}
	fmt.Println("expected: lifts ~1 under the trace's random placement — the headroom a")
	fmt.Println("          group-aware placer could exploit")
	fmt.Println()
}

func runE12(model *core.Model, cands []sampling.Candidate, seed int64) {
	fmt.Println("== E12 (extension): placement policy vs co-location and imbalance ==")
	n := len(cands)
	if n > 1000 {
		n = 1000
	}
	pjobs := make([]sched.PlacementJob, 0, n)
	jobGroup := make(map[string]string, n)
	for i := 0; i < n; i++ {
		gp, _, err := model.Classify(cands[i].Graph)
		must(err)
		total := 0
		for _, id := range cands[i].Graph.NodeIDs() {
			total += cands[i].Graph.Node(id).Instances
		}
		pjobs = append(pjobs, sched.PlacementJob{
			JobID:     cands[i].Job.Name,
			Group:     gp.Name,
			Instances: total,
		})
		jobGroup[cands[i].Job.Name] = gp.Name
	}
	for _, pol := range []sched.PlacementPolicy{
		sched.RandomPlacement, sched.LeastLoadedPlacement, sched.GroupPackedPlacement,
	} {
		recs, err := sched.Place(pjobs, sched.PlacementOptions{Machines: 400, Policy: pol, Seed: seed})
		must(err)
		gini, err := resource.LoadImbalance(recs)
		must(err)
		res, err := coloc.Analyze(recs, jobGroup)
		must(err)
		var lift float64
		for _, ov := range res.Overlaps {
			lift += ov.Lift
		}
		if len(res.Overlaps) > 0 {
			lift /= float64(len(res.Overlaps))
		}
		fmt.Printf("%-13s load Gini %.3f, mean cross-group lift %.2f\n", pol.String()+":", gini, lift)
	}
	fmt.Println("expected: least-loaded minimizes imbalance; group-packed drives cross-group")
	fmt.Println("          co-location to zero; random sits at lift ~1")
	fmt.Println()
}

func writeCSV(outDir, name string, tbl *report.Table) {
	if outDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(outDir, name))
	must(err)
	must(tbl.WriteCSV(f))
	must(f.Close())
}
