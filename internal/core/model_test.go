package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jobgraph/internal/dag"
	"jobgraph/internal/sampling"
	"jobgraph/internal/taskname"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

// mkChainJob builds a simple chain DAG of the given size.
func mkChainJob(t testing.TB, id string, n int) *dag.Graph {
	t.Helper()
	g := dag.New(id)
	for i := 1; i <= n; i++ {
		typ := taskname.TypeReduce
		if i == 1 {
			typ = taskname.TypeMap
		}
		if err := g.AddNode(dag.Node{ID: dag.NodeID(i), Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(dag.NodeID(i), dag.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// modelFor runs the pipeline over nJobs generated jobs and extracts
// the analysis's model.
func modelFor(t testing.TB, nJobs int, seed int64) (*Model, *Analysis) {
	t.Helper()
	an := runPipeline(t, nJobs, seed)
	m, err := ExtractModel(an, false)
	if err != nil {
		t.Fatal(err)
	}
	return m, an
}

// groupOf returns the analysis group profile the model group names.
func groupOf(t testing.TB, an *Analysis, name string) GroupProfile {
	t.Helper()
	for _, gp := range an.Groups {
		if gp.Name == name {
			return gp
		}
	}
	t.Fatalf("model group %s not in the analysis", name)
	return GroupProfile{}
}

func TestClassifyChainJob(t *testing.T) {
	m, an := modelFor(t, 8000, 40)
	// A fresh 2-task chain must land in a chain-dominated group with
	// near-perfect similarity (identical jobs exist in the sample).
	mg, score, err := m.Classify(mkChainJob(t, "new-job", 2))
	if err != nil {
		t.Fatal(err)
	}
	if gp := groupOf(t, an, mg.Name); gp.ChainFraction < 0.9 || gp.ShortFraction < 0.9 {
		t.Fatalf("2-chain assigned to group %s (chain=%.2f short=%.2f)",
			gp.Name, gp.ChainFraction, gp.ShortFraction)
	}
	if score < 0.9 {
		t.Fatalf("similarity score = %.3f, want near 1", score)
	}
}

func TestClassifyLargeJobAvoidsChainGroup(t *testing.T) {
	m, an := modelFor(t, 8000, 41)
	// A wide inverted triangle should not land in a pure-chain group.
	g := dag.New("wide")
	sink := dag.NodeID(21)
	if err := g.AddNode(dag.Node{ID: sink, Type: taskname.TypeReduce}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := g.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(dag.NodeID(i), sink); err != nil {
			t.Fatal(err)
		}
	}
	mg, _, err := m.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	if gp := groupOf(t, an, mg.Name); gp.ChainFraction > 0.5 {
		t.Fatalf("wide triangle assigned to chain group %s", gp.Name)
	}
}

func TestClassifyDeterministic(t *testing.T) {
	m, _ := modelFor(t, 3000, 42)
	g := mkChainJob(t, "q", 3)
	g1, s1, err := m.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, s2, err := m.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Name != g2.Name || s1 != s2 {
		t.Fatal("classification not deterministic")
	}
}

// TestClassifyMatchesSpectralGroups is the batch-vs-serve differential:
// the model a daemon serves must put every training job back into the
// spectral group the batch pipeline gave it.
func TestClassifyMatchesSpectralGroups(t *testing.T) {
	for _, n := range []int{40, 100} {
		cfg := DefaultConfig(testWindow, 1)
		cfg.SampleSize = n
		an, err := Run(genJobs(t, 5000, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ExtractModel(an, cfg.Conflate)
		if err != nil {
			t.Fatal(err)
		}
		for _, gp := range an.Groups {
			for _, idx := range gp.Members {
				got, _, err := m.Classify(an.Graphs[idx])
				if err != nil {
					t.Fatal(err)
				}
				if got.Name != gp.Name {
					t.Errorf("sample %d: job %s in spectral group %s classifies into %s",
						n, an.Graphs[idx].JobID, gp.Name, got.Name)
				}
			}
		}
	}
}

// TestClassifyWarmAllocs pins the serving hot path: a warm Classify
// allocates only the query vector's two arrays.
func TestClassifyWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled embedders at random")
	}
	m, an := trainedModel(t)
	g := an.Graphs[len(an.Graphs)/2]
	if _, _, err := m.Classify(g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := m.Classify(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm Classify allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestLoadModelV1Fixture loads a jobgraph-model/v1 file written while
// centroids were still label-count maps. It must classify a fixed
// graph set into the recorded groups with bit-identical scores.
func TestLoadModelV1Fixture(t *testing.T) {
	m, err := LoadModel(filepath.Join("testdata", "model_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "model_v1.classify.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	// The graph set: every eligible job of a fixed generated trace.
	cands, _, err := sampling.Filter(genJobs(t, 600, 6), sampling.PaperCriteria(testWindow))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(lines) {
		t.Fatalf("%d query graphs, fixture records %d", len(cands), len(lines))
	}
	for i, c := range cands {
		mg, score, err := m.Classify(c.Graph)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s %s %016x", c.Graph.JobID, mg.Name, math.Float64bits(score))
		if got != lines[i] {
			t.Errorf("query %d: got %q, fixture %q", i, got, lines[i])
		}
	}
}

// trainedModel runs a small pipeline and extracts its model.
func trainedModel(t *testing.T) (*Model, *Analysis) {
	t.Helper()
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(3000, 1))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(2*8*24*3600, 1)
	cfg.SampleSize = 60
	an, err := Run(jobs, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m, err := ExtractModel(an, cfg.Conflate)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return m, an
}

func TestExtractModel(t *testing.T) {
	m, an := trainedModel(t)
	if m.Schema != ModelSchema {
		t.Fatalf("schema %q", m.Schema)
	}
	if len(m.Groups) != len(an.Groups) {
		t.Fatalf("groups %d != %d", len(m.Groups), len(an.Groups))
	}
	if m.TrainedOn != len(an.Graphs) {
		t.Fatalf("trained on %d != %d", m.TrainedOn, len(an.Graphs))
	}
	for _, g := range m.Groups {
		if len(g.Centroid.Keys) == 0 {
			t.Fatalf("group %s has empty centroid", g.Name)
		}
	}
	fp, _ := an.Fingerprint()
	if m.Fingerprint != fp {
		t.Fatalf("fingerprint mismatch")
	}
}

func TestExtractModelRequiresKernelState(t *testing.T) {
	if _, err := ExtractModel(&Analysis{}, false); err == nil {
		t.Fatal("expected error for analysis without kernel state")
	}
}

// A training member must classify into a group with a high score, and
// its own group should usually win; at minimum classification must be
// deterministic and in [0,1].
func TestModelClassify(t *testing.T) {
	m, an := trainedModel(t)
	agree := 0
	for gi, gp := range an.Groups {
		for _, idx := range gp.Members {
			got, score, err := m.Classify(an.Graphs[idx])
			if err != nil {
				t.Fatalf("classify member %d: %v", idx, err)
			}
			if score < 0 || score > 1 {
				t.Fatalf("score %v out of [0,1]", score)
			}
			if got.Name == an.Groups[gi].Name {
				agree++
			}
			// Determinism: a second classification matches the first.
			again, score2, err := m.Classify(an.Graphs[idx])
			if err != nil || again.Name != got.Name || score2 != score {
				t.Fatalf("classification not deterministic: %v/%v vs %v/%v (%v)",
					got.Name, score, again.Name, score2, err)
			}
		}
	}
	if frac := float64(agree) / float64(len(an.Graphs)); frac < 0.5 {
		t.Fatalf("only %.0f%% of training members classify into their own group", 100*frac)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, an := trainedModel(t)
	path := filepath.Join(t.TempDir(), "sub", "model.gob")
	if err := m.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Fingerprint != m.Fingerprint || loaded.TrainedOn != m.TrainedOn {
		t.Fatalf("round trip lost identity")
	}
	if loaded.Dict.Len() != m.Dict.Len() {
		t.Fatalf("dictionary size changed: %d != %d", loaded.Dict.Len(), m.Dict.Len())
	}
	// The loaded model classifies identically to the original.
	for _, g := range an.Graphs[:10] {
		g1, s1, err1 := m.Classify(g)
		g2, s2, err2 := loaded.Classify(g)
		if err1 != nil || err2 != nil || g1.Name != g2.Name || s1 != s2 {
			t.Fatalf("loaded model disagrees: %v/%v vs %v/%v", g1.Name, s1, g2.Name, s2)
		}
	}
}

func TestLoadModelRejectsAlienFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Fatal("expected schema error")
	}
}

func TestLoadModelRejectsTruncated(t *testing.T) {
	m, _ := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Fatal("expected decode error on truncated model")
	}
}

// TestLoadModelRejectsAbsurdDepth: refinement cost grows with the WL
// depth, so a model file claiming an absurd one must fail to load
// rather than stall every later Classify.
func TestLoadModelRejectsAbsurdDepth(t *testing.T) {
	g := fuzzGraph(t)
	_, dict, err := wl.Features([]*dag.Graph{g}, wl.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Schema: ModelSchema, WL: wl.Options{Iterations: 1 << 40}, Dict: dict,
		Groups: []ModelGroup{{Name: "A"}}}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Fatal("model with 2^40 WL iterations loaded")
	}
}
