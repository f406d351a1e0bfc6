package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jobgraph/internal/linalg"
)

func TestKMedoidsRecoversBlocks(t *testing.T) {
	aff, truth := blockAffinity([]int{15, 12, 8}, 0.9, 0.05)
	dist, err := DistanceFromSimilarity(aff)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMedoids(dist, KMedoidsOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1 {
		t.Fatalf("ARI = %g, want 1 on block distances", ari)
	}
}

func TestKMedoidsMedoidsAreClusterMembers(t *testing.T) {
	aff, _ := blockAffinity([]int{10, 10}, 0.8, 0.1)
	dist, err := DistanceFromSimilarity(aff)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMedoids(dist, KMedoidsOptions{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 2 {
		t.Fatalf("medoids = %v", res.Medoids)
	}
	for c, m := range res.Medoids {
		if res.Labels[m] != c {
			t.Fatalf("medoid %d of cluster %d is labeled %d", m, c, res.Labels[m])
		}
	}
}

func TestKMedoidsValidation(t *testing.T) {
	dist := linalg.NewSymMatrix(3)
	if _, err := KMedoids(dist, KMedoidsOptions{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMedoids(dist, KMedoidsOptions{K: 4}); err == nil {
		t.Fatal("k>n accepted")
	}
	neg := linalg.NewSymMatrix(2)
	neg.Set(0, 1, -1)
	if _, err := KMedoids(neg, KMedoidsOptions{K: 1}); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestKMedoidsDeterministicWithSeed(t *testing.T) {
	aff, _ := blockAffinity([]int{12, 9, 7}, 0.85, 0.1)
	dist, _ := DistanceFromSimilarity(aff)
	a, err := KMedoids(dist, KMedoidsOptions{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMedoids(dist, KMedoidsOptions{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different labels")
		}
	}
}

func TestKMedoidsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		// Random symmetric non-negative distances with zero diagonal.
		dist := linalg.NewSymMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dist.Set(i, j, rng.Float64()*10)
			}
		}
		k := 1 + rng.Intn(n)
		res, err := KMedoids(dist, KMedoidsOptions{K: k, Seed: seed, Restarts: 2})
		if err != nil {
			return false
		}
		if len(res.Labels) != n || len(res.Medoids) != k {
			return false
		}
		if res.Cost < 0 {
			return false
		}
		// Every point sits with its nearest medoid (ties allowed).
		for i := 0; i < n; i++ {
			got := dist.At(i, res.Medoids[res.Labels[i]])
			for _, m := range res.Medoids {
				if dist.At(i, m) < got-1e-9 {
					return false
				}
			}
		}
		// Medoids are distinct.
		seen := map[int]bool{}
		for _, m := range res.Medoids {
			if seen[m] {
				return false
			}
			seen[m] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKMedoidsAgreesWithSpectralOnCleanBlocks(t *testing.T) {
	aff, truth := blockAffinity([]int{20, 15, 10, 5}, 0.9, 0.02)
	dist, _ := DistanceFromSimilarity(aff)
	km, err := KMedoids(dist, KMedoidsOptions{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Spectral(aff, SpectralOptions{K: 4, KMeans: KMeansOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := ARI(km.Labels, truth)
	a2, _ := ARI(sp.Labels, truth)
	if a1 < 0.99 || a2 < 0.99 {
		t.Fatalf("ARI kmedoids=%.3f spectral=%.3f", a1, a2)
	}
}
