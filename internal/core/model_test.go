package core

import (
	"os"
	"path/filepath"
	"testing"

	"jobgraph/internal/dag"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

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
		if len(g.Centroid) == 0 {
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
