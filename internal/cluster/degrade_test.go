package cluster

import (
	"math/rand"
	"testing"

	"jobgraph/internal/linalg"
)

func TestKMeansDegenerateFlagged(t *testing.T) {
	// Every point identical: no seeding can populate two clusters, so
	// after the bounded reseeds the result must carry the Degenerate
	// marker with labels still valid.
	pts := make([][]float64, 12)
	for i := range pts {
		pts[i] = []float64{3, 3}
	}
	res, err := KMeans(pts, KMeansOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degenerate {
		t.Fatalf("degenerate labeling not flagged: %v", res.Labels)
	}
	for i, l := range res.Labels {
		if l < 0 || l >= 2 {
			t.Fatalf("label[%d] = %d out of range", i, l)
		}
	}
}

func TestKMeansReseedRescuesDuplicateHeavy(t *testing.T) {
	// Two real groups buried under heavy duplication: the clustering
	// must come out non-degenerate (possibly via reseeding) and split
	// the two locations.
	var pts [][]float64
	for i := 0; i < 30; i++ {
		pts = append(pts, []float64{0, 0})
	}
	for i := 0; i < 30; i++ {
		pts = append(pts, []float64{10, 10})
	}
	for seed := int64(0); seed < 10; seed++ {
		res, err := KMeans(pts, KMeansOptions{K: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degenerate {
			t.Fatalf("seed %d: separable data flagged degenerate", seed)
		}
		if res.Labels[0] == res.Labels[59] {
			t.Fatalf("seed %d: groups merged: %v", seed, res.Labels)
		}
	}
}

func TestKMeansHappyPathUnchangedByReseedLogic(t *testing.T) {
	// The reseed machinery must be invisible on healthy data: same
	// result as a plain best-of-restarts run with the same seed.
	rng := rand.New(rand.NewSource(11))
	points, _ := blobs(rng, 3, 15, 4)
	opt := KMeansOptions{K: 3, Seed: 7}
	opt.defaults()
	want := bestOfRestarts(points, opt, opt.Seed)
	got, err := KMeans(points, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degenerate || got.Inertia != want.Inertia {
		t.Fatalf("healthy run altered: inertia %g vs %g, degenerate %v",
			got.Inertia, want.Inertia, got.Degenerate)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatal("healthy run labels differ from direct restarts")
		}
	}
}

func TestSpectralCleanRunNoWarnings(t *testing.T) {
	// Two clean affinity blocks: no degradation, so no warnings.
	n := 10
	a := linalg.NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if (i < n/2) == (j < n/2) {
				a.Set(i, j, 1)
			} else {
				a.Set(i, j, 0.01)
			}
		}
	}
	res, err := Spectral(a, SpectralOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean run produced warnings: %v", res.Warnings)
	}
	if res.Labels[0] == res.Labels[n-1] {
		t.Fatalf("blocks not separated: %v", res.Labels)
	}
}

func TestDistinctLabels(t *testing.T) {
	if n := distinctLabels([]int{0, 1, 1, 0, 2}); n != 3 {
		t.Fatalf("distinct = %d, want 3", n)
	}
	if n := distinctLabels(nil); n != 0 {
		t.Fatalf("distinct(nil) = %d, want 0", n)
	}
}
