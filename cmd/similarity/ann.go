// ANN mode for the similarity command: approximate top-k over MinHash/
// LSH sketches, the recall/agreement check against the exact kernel,
// the accuracy-vs-speed band sweep, and the synthetic million-job
// latency probe. The -ann-report JSON is what CI's ann-gate asserts on;
// the same numbers are published as obs gauges so every gated run's
// ledger entry records them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/obs"
	"jobgraph/internal/wl"
)

// annFlags is the -ann* flag group.
type annFlags struct {
	enabled     bool
	topK        int
	recallCheck bool
	report      string
	csv         string
	out         string
	buckets     int
	minhash     int
	bands       int
	scale       int
}

func registerANNFlags() *annFlags {
	af := &annFlags{}
	flag.BoolVar(&af.enabled, "ann", false,
		"build the MinHash/LSH ANN index over the sample (adds the wl.sketch/wl.annindex stages)")
	flag.IntVar(&af.topK, "topk", 10, "neighbours per ANN query (recall@k uses this k)")
	flag.BoolVar(&af.recallCheck, "recall-check", false,
		"measure ANN recall@k and sketch-cluster agreement against the exact kernel (requires -ann)")
	flag.StringVar(&af.report, "ann-report", "", "write the ANN gate report JSON here")
	flag.StringVar(&af.csv, "ann-csv", "", "write the accuracy-vs-speed band sweep CSV here")
	flag.StringVar(&af.out, "ann-out", "", "persist the ANN index (gob) here")
	flag.IntVar(&af.buckets, "buckets", 0, "hashed feature space width (0: 1<<20)")
	flag.IntVar(&af.minhash, "minhash", 0, "MinHash signature width (0: 64)")
	flag.IntVar(&af.bands, "bands", 0, "LSH bands (0: 16; must divide -minhash)")
	flag.IntVar(&af.scale, "ann-scale", 0,
		"also measure query latency over a synthetic corpus of this many sketched jobs (0: skip)")
	return af
}

func (af *annFlags) sketchOptions() wl.SketchOptions {
	return wl.SketchOptions{Buckets: af.buckets, Hashes: af.minhash, Bands: af.bands}.Resolved()
}

// gateReport is the -ann-report payload; CI asserts on these fields.
type gateReport struct {
	Schema     string `json:"schema"`
	SampleJobs int    `json:"sample_jobs"`
	TopK       int    `json:"topk"`
	Hashes     int    `json:"hashes"`
	Bands      int    `json:"bands"`
	Buckets    int    `json:"buckets"`

	// Recall/agreement vs the exact kernel (present with -recall-check).
	RecallAtK      *float64 `json:"recall_at_k,omitempty"`
	MeanCandidates *float64 `json:"mean_candidates,omitempty"`
	ARIMiniBatch   *float64 `json:"ari_minibatch,omitempty"`
	NMIMiniBatch   *float64 `json:"nmi_minibatch,omitempty"`
	ARIKMedoids    *float64 `json:"ari_kmedoids,omitempty"`
	NMIKMedoids    *float64 `json:"nmi_kmedoids,omitempty"`

	// Synthetic-corpus latency (present with -ann-scale).
	ScaleJobs  int      `json:"scale_jobs,omitempty"`
	P50QueryUs *float64 `json:"p50_query_us,omitempty"`
	P95QueryUs *float64 `json:"p95_query_us,omitempty"`
}

const gateSchema = "jobgraph-ann-gate/v1"

// Gate gauges: the same numbers the JSON report carries, published on
// the default registry so the run's ledger entry records them.
var (
	gRecallPermille = obs.Default().Gauge("wl.ann.gate.recall_permille")
	gP50QueryUs     = obs.Default().Gauge("wl.ann.gate.p50_query_us")
	gScaleJobs      = obs.Default().Gauge("wl.ann.gate.scale_jobs")
	gARIPermille    = obs.Default().Gauge("wl.ann.gate.ari_minibatch_permille")
)

// runANN executes every requested ANN extra after the pipeline run.
func runANN(af *annFlags, an *core.Analysis, cfg core.Config, workers int) error {
	ix := an.ANNIndex
	if ix == nil {
		return fmt.Errorf("pipeline produced no ANN index")
	}
	sk := ix.Options()
	rep := gateReport{
		Schema:     gateSchema,
		SampleJobs: ix.Len(),
		TopK:       af.topK,
		Hashes:     sk.Hashes,
		Bands:      sk.Bands,
		Buckets:    sk.Buckets,
	}
	fmt.Printf("ANN index: %d jobs, %d hashes in %d bands over %d buckets\n",
		ix.Len(), sk.Hashes, sk.Bands, sk.Buckets)

	if af.recallCheck {
		if err := annRecallCheck(af, an, cfg, &rep); err != nil {
			return err
		}
	}
	if af.csv != "" {
		if err := annBandSweep(af, an, cfg, workers); err != nil {
			return err
		}
	}
	if af.scale > 0 {
		if err := annScaleProbe(af, &rep, workers); err != nil {
			return err
		}
	}
	if af.out != "" {
		f, err := os.Create(af.out)
		if err != nil {
			return err
		}
		if err := ix.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("ANN index written to %s\n", af.out)
	}
	if af.report != "" {
		f, err := os.Create(af.report)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("ANN gate report written to %s\n", af.report)
	}
	return nil
}

// annRecall computes mean recall@k of an index against the exact kernel
// matrix, tie-tolerant: an ANN hit counts when its exact similarity
// reaches the k-th exact similarity (ties at the boundary are all
// equally correct answers). Also returns the mean LSH candidate-set
// size per query.
func annRecall(ix *wl.ANNIndex, an *core.Analysis, k int) (recall, meanCands float64, err error) {
	n := len(an.Graphs)
	idxOf := make(map[string]int, n)
	for i, g := range an.Graphs {
		idxOf[g.JobID] = i
	}
	var recallSum float64
	var candTotal int
	for q := 0; q < n; q++ {
		exact := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != q {
				exact = append(exact, an.Similarity.At(q, j))
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(exact)))
		kk := k
		if kk > len(exact) {
			kk = len(exact)
		}
		threshold := exact[kk-1] - 1e-9

		hits, qerr := ix.QueryJob(an.Graphs[q].JobID, kk)
		if qerr != nil {
			return 0, 0, qerr
		}
		candTotal += len(ix.Candidates(an.HashedVectors[q])) - 1 // minus self
		got := 0
		for _, h := range hits {
			j, ok := idxOf[h.JobID]
			if !ok {
				return 0, 0, fmt.Errorf("ANN returned unknown job %s", h.JobID)
			}
			if an.Similarity.At(q, j) >= threshold {
				got++
			}
		}
		recallSum += float64(got) / float64(kk)
	}
	return recallSum / float64(n), float64(candTotal) / float64(n), nil
}

// annRecallCheck fills the gate report's accuracy section: recall@k vs
// the exact kernel and sketch-cluster agreement vs the exact spectral
// labels, on the (≤100-job) analysis sample.
func annRecallCheck(af *annFlags, an *core.Analysis, cfg core.Config, rep *gateReport) error {
	recall, meanCands, err := annRecall(an.ANNIndex, an, af.topK)
	if err != nil {
		return err
	}
	rep.RecallAtK = &recall
	rep.MeanCandidates = &meanCands
	gRecallPermille.Set(int64(recall * 1000))
	fmt.Printf("recall@%d vs exact kernel: %.3f (mean candidates %.1f of %d)\n",
		af.topK, recall, meanCands, an.ANNIndex.Len()-1)

	// Cluster agreement: sketch-space clusterings vs the exact spectral
	// labels. Informational — ARI/NMI between different algorithms is
	// structurally noisy at n=100, so the gate asserts recall, not this.
	mb, err := cluster.MiniBatchKMeans(an.HashedVectors, cluster.MiniBatchKMeansOptions{K: cfg.Groups, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	ariMB, err := cluster.ARI(mb.Labels, an.Labels)
	if err != nil {
		return err
	}
	nmiMB, err := cluster.NMI(mb.Labels, an.Labels)
	if err != nil {
		return err
	}
	km, err := cluster.SketchKMedoids(an.HashedVectors, an.ANNIndex.CandidateNeighbors(32),
		cluster.SketchKMedoidsOptions{K: cfg.Groups, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	ariKM, err := cluster.ARI(km.Labels, an.Labels)
	if err != nil {
		return err
	}
	nmiKM, err := cluster.NMI(km.Labels, an.Labels)
	if err != nil {
		return err
	}
	rep.ARIMiniBatch, rep.NMIMiniBatch = &ariMB, &nmiMB
	rep.ARIKMedoids, rep.NMIKMedoids = &ariKM, &nmiKM
	gARIPermille.Set(int64(ariMB * 1000))
	fmt.Printf("cluster agreement vs spectral: minibatch ARI %.3f NMI %.3f, kmedoids ARI %.3f NMI %.3f\n",
		ariMB, nmiMB, ariKM, nmiKM)
	return nil
}

// annBandSweep writes the accuracy-vs-speed curve: one row per band
// count (each divisor of the signature width), re-indexing the sample's
// sketches under that LSH geometry and measuring recall@k, candidate
// volume and query latency.
func annBandSweep(af *annFlags, an *core.Analysis, cfg core.Config, workers int) error {
	base := an.ANNIndex.Options()
	jobIDs := make([]string, len(an.Graphs))
	for i, g := range an.Graphs {
		jobIDs[i] = g.JobID
	}
	f, err := os.Create(af.csv)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "bands,rows,recall_at_k,mean_candidates,p50_query_us,jobs,topk")
	for bands := 1; bands <= base.Hashes; bands *= 2 {
		if base.Hashes%bands != 0 {
			continue
		}
		opt := base
		opt.Bands = bands
		sigs, err := wl.Sketches(an.HashedVectors, opt, workers)
		if err != nil {
			return err
		}
		ix, err := wl.NewANNIndexFromSketches(cfg.WL, opt, jobIDs, an.HashedVectors, sigs)
		if err != nil {
			return err
		}
		ix.Build()
		recall, meanCands, err := annRecall(ix, an, af.topK)
		if err != nil {
			return err
		}
		durs := make([]time.Duration, len(jobIDs))
		for i, id := range jobIDs {
			start := time.Now()
			if _, err := ix.QueryJob(id, af.topK); err != nil {
				return err
			}
			durs[i] = time.Since(start)
		}
		fmt.Fprintf(f, "%d,%d,%.4f,%.1f,%.1f,%d,%d\n",
			bands, base.Hashes/bands, recall, meanCands,
			float64(percentileDur(durs, 0.50))/float64(time.Microsecond),
			len(jobIDs), af.topK)
	}
	fmt.Printf("accuracy-vs-speed sweep written to %s\n", af.csv)
	return nil
}

// annScaleProbe measures top-k query latency over a synthetic sketched
// corpus of af.scale jobs. The corpus mimics trace structure — jobs are
// perturbed copies of a few thousand prototype supports, so LSH buckets
// carry realistic density instead of all-singletons.
func annScaleProbe(af *annFlags, rep *gateReport, workers int) error {
	n := af.scale
	sk := af.sketchOptions()
	fmt.Printf("scale probe: sketching %d synthetic jobs...\n", n)
	rng := rand.New(rand.NewSource(42))

	const nProto = 4096
	protos := make([][]int, nProto)
	for p := range protos {
		nnz := 12 + rng.Intn(24)
		protos[p] = make([]int, nnz)
		for i := range protos[p] {
			protos[p][i] = rng.Intn(sk.Buckets)
		}
	}
	vectors := make([]wl.CompactVector, n)
	jobIDs := make([]string, n)
	for i := 0; i < n; i++ {
		proto := protos[rng.Intn(nProto)]
		v := make(map[int]float64, len(proto)+2)
		for _, feat := range proto {
			v[feat] = float64(1 + rng.Intn(3))
		}
		// Perturb a couple of features so near-duplicates dominate but
		// exact duplicates stay rare.
		for m := 0; m < 2; m++ {
			v[rng.Intn(sk.Buckets)] = 1
		}
		var cv wl.CompactVector
		for feat := range v {
			cv.Keys = append(cv.Keys, int32(feat))
		}
		slices.Sort(cv.Keys)
		for _, k := range cv.Keys {
			cv.Vals = append(cv.Vals, v[int(k)])
		}
		vectors[i] = cv
		jobIDs[i] = fmt.Sprintf("synth-%08d", i)
	}

	buildStart := time.Now()
	sigs, err := wl.Sketches(vectors, sk, workers)
	if err != nil {
		return err
	}
	ix, err := wl.NewANNIndexFromSketches(wl.DefaultOptions(), sk, jobIDs, vectors, sigs)
	if err != nil {
		return err
	}
	ix.Build()
	buildDur := time.Since(buildStart)
	vectors, sigs = nil, nil
	// The probe measures steady-state query latency: collect the
	// construction garbage now and fault the band tables in with a
	// warm-up pass, so neither pollutes the timed samples.
	runtime.GC()

	const nQueries = 256
	for q := 0; q < 32; q++ {
		if _, err := ix.QueryJob(jobIDs[(q*(n/32))%n], af.topK); err != nil {
			return err
		}
	}
	durs := make([]time.Duration, 0, nQueries)
	for q := 0; q < nQueries; q++ {
		id := jobIDs[(q*(n/nQueries))%n]
		start := time.Now()
		if _, err := ix.QueryJob(id, af.topK); err != nil {
			return err
		}
		durs = append(durs, time.Since(start))
	}
	p50 := float64(percentileDur(durs, 0.50)) / float64(time.Microsecond)
	p95 := float64(percentileDur(durs, 0.95)) / float64(time.Microsecond)
	rep.ScaleJobs = n
	rep.P50QueryUs = &p50
	rep.P95QueryUs = &p95
	gP50QueryUs.Set(int64(p50))
	gScaleJobs.Set(int64(n))
	fmt.Printf("scale probe: %d jobs indexed in %.1fs; top-%d query p50 %.0fµs p95 %.0fµs\n",
		n, buildDur.Seconds(), af.topK, p50, p95)
	return nil
}

// percentileDur returns the p-quantile (nearest-rank) of a duration set.
func percentileDur(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
