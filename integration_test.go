// End-to-end integration tests: synthetic trace → CSV round trip →
// filtering → kernel → clustering → reports, exercising the same path
// the cmd/ tools use.
package jobgraph_test

import (
	"bytes"
	"strings"
	"testing"

	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/resource"
	"jobgraph/internal/sampling"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

// TestEndToEndThroughCSV verifies the full pipeline operates on data
// that has passed through the CSV wire format, exactly as it would on
// the real Alibaba tables.
func TestEndToEndThroughCSV(t *testing.T) {
	records, err := tracegen.Generate(tracegen.DefaultConfig(3000, 101))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteTasks(&buf, records); err != nil {
		t.Fatal(err)
	}
	jobs, err := trace.ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Run(jobs, core.DefaultConfig(benchWindow, 101))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Groups) != 5 || len(an.Sample) != 100 {
		t.Fatalf("pipeline output: %d groups, %d sample", len(an.Groups), len(an.Sample))
	}
	tbl := core.Fig9GroupTable(an)
	if !strings.Contains(tbl.String(), "population") {
		t.Fatal("group table malformed")
	}
}

// TestCSVIdentityThroughPipeline asserts that CSV round-tripping does
// not change any analysis result.
func TestCSVIdentityThroughPipeline(t *testing.T) {
	records, err := tracegen.Generate(tracegen.DefaultConfig(2000, 55))
	if err != nil {
		t.Fatal(err)
	}
	direct := trace.GroupTasks(records)

	var buf bytes.Buffer
	if err := trace.WriteTasks(&buf, records); err != nil {
		t.Fatal(err)
	}
	viaCSV, err := trace.ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}

	a, err := core.Run(direct, core.DefaultConfig(benchWindow, 55))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(viaCSV, core.DefaultConfig(benchWindow, 55))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Labels) != len(b.Labels) {
		t.Fatal("label count mismatch")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("CSV round trip changed the clustering")
		}
	}
	for i := range a.Similarity.Data {
		if a.Similarity.Data[i] != b.Similarity.Data[i] {
			t.Fatal("CSV round trip changed the kernel matrix")
		}
	}
}

// TestPaperHeadlineShapes asserts the qualitative results the paper
// reports, end to end on a freshly generated trace.
func TestPaperHeadlineShapes(t *testing.T) {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(10000, 202))
	if err != nil {
		t.Fatal(err)
	}

	// §II-B: ~50% DAG jobs consuming 70-80% of resources.
	split, err := resource.SplitByDependency(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := split.DAGJobShare(); s < 0.45 || s > 0.55 {
		t.Fatalf("DAG job share %.3f", s)
	}
	if s := split.DAGCPUShare(); s < 0.65 || s > 0.88 {
		t.Fatalf("DAG CPU share %.3f", s)
	}

	an, err := core.Run(jobs, core.DefaultConfig(benchWindow, 202))
	if err != nil {
		t.Fatal(err)
	}

	// §VI-A: a major group of short chain jobs exists. (Which rank it
	// lands at varies with the k-means seed; the paper's group A is the
	// analogous block.)
	foundShortChains := false
	for _, gp := range an.Groups {
		if gp.ChainFraction >= 0.9 && gp.ShortFraction >= 0.9 && gp.Population >= 0.15 {
			foundShortChains = true
			break
		}
	}
	if !foundShortChains {
		for _, gp := range an.Groups {
			t.Logf("%s pop=%.2f chain=%.2f short=%.2f", gp.Name, gp.Population, gp.ChainFraction, gp.ShortFraction)
		}
		t.Fatal("no major short-chain group found")
	}

	// §V-A: parallelism positively correlated with size.
	rho, err := core.SizeWidthCorrelation(an)
	if err != nil {
		t.Fatal(err)
	}
	if rho <= 0.2 {
		t.Fatalf("size-width correlation %.3f", rho)
	}

	// §V-A: critical paths stay in the 2-8 band.
	for _, g := range an.Graphs {
		d, err := g.Depth()
		if err != nil {
			t.Fatal(err)
		}
		if d < 2 || d > 8 {
			t.Fatalf("depth %d outside 2-8", d)
		}
	}
}

// TestChooseKFindsPaperK checks the eigengap heuristic lands in a
// plausible neighbourhood of the paper's k=5 on pipeline similarity
// matrices.
func TestChooseKFindsPaperK(t *testing.T) {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(5000, 77))
	if err != nil {
		t.Fatal(err)
	}
	cands, _, err := sampling.Filter(jobs, sampling.PaperCriteria(benchWindow))
	if err != nil {
		t.Fatal(err)
	}
	graphs := sampling.Graphs(sampling.SampleDiverse(cands, 100, 77))
	sim, err := wl.KernelMatrix(graphs, wl.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := cluster.ChooseK(sim, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 || k > 10 {
		t.Fatalf("ChooseK = %d", k)
	}
	t.Logf("eigengap K = %d (paper used 5)", k)
}

// TestScaleThousandJobKernel exercises the pipeline well beyond the
// paper's 100-job sample: a 1000-job kernel matrix plus clustering.
// Skipped under -short.
func TestScaleThousandJobKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(30000, 303))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(benchWindow, 303)
	cfg.SampleSize = 1000
	an, err := core.Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Sample) != 1000 || an.Similarity.N != 1000 {
		t.Fatalf("scale run: %d sampled", len(an.Sample))
	}
	if len(an.Groups) != 5 {
		t.Fatalf("groups = %d", len(an.Groups))
	}
	total := 0
	for _, gp := range an.Groups {
		total += gp.Count
	}
	if total != 1000 {
		t.Fatalf("group membership total = %d", total)
	}
	// Hashed embedding agrees with the dictionary path at this scale.
	hashed, err := wl.HashedFeatures(an.Graphs, cfg.WL, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := wl.Features(an.Graphs, cfg.WL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // spot-check a band
		for j := i; j < 50; j++ {
			a := wl.Similarity(exact[i], exact[j])
			b := wl.Similarity(hashed[i], hashed[j])
			if d := a - b; d > 1e-9 || d < -1e-9 {
				t.Fatalf("hashed disagreement at (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}
