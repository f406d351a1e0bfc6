package wl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashedFeaturesAgreeWithExact(t *testing.T) {
	graphs := sampleGraphs(t, 40, 11)
	opt := DefaultOptions()
	exact, _, err := Features(graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := HashedFeatures(graphs, opt, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise similarities must match to numerical precision when no
	// collisions occur (bucket space ≫ label count).
	for i := 0; i < len(graphs); i++ {
		for j := i; j < len(graphs); j++ {
			se := Similarity(exact[i], exact[j])
			sh := Similarity(hashed[i], hashed[j])
			if math.Abs(se-sh) > 1e-9 {
				t.Fatalf("(%d,%d): exact %g vs hashed %g", i, j, se, sh)
			}
		}
	}
}

func TestHashedFeaturesWorkerInvariance(t *testing.T) {
	graphs := sampleGraphs(t, 15, 12)
	ref, err := HashedFeatures(graphs, DefaultOptions(), 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 0, 100} {
		got, err := HashedFeatures(graphs, DefaultOptions(), 1<<16, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if !vecEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: vector %d differs", w, i)
			}
		}
	}
}

func TestHashedFeaturesValidation(t *testing.T) {
	graphs := sampleGraphs(t, 3, 13)
	if _, err := HashedFeatures(graphs, Options{Iterations: -1}, 0, 0); err == nil {
		t.Fatal("bad options accepted")
	}
	opt := DefaultOptions()
	opt.Base = BaseShortestPath
	if _, err := HashedFeatures(graphs, opt, 0, 0); err == nil {
		t.Fatal("non-subtree base accepted")
	}
	// Vector keys are int32: a wider bucket space would truncate keys.
	for _, buckets := range []int{math.MaxInt32 + 1, 5000000000} {
		if _, err := HashedFeatures(graphs, DefaultOptions(), buckets, 0); err == nil {
			t.Fatalf("%d buckets accepted", buckets)
		}
	}
}

func TestHashedFeaturesMassProperty(t *testing.T) {
	// Hashing redistributes labels but conserves total count mass.
	f := func(seed int64) bool {
		graphs := sampleGraphs(t, 5, seed)
		opt := DefaultOptions()
		hashed, err := HashedFeatures(graphs, opt, 1<<12, 2)
		if err != nil {
			return false
		}
		for i, g := range graphs {
			var mass float64
			for _, c := range hashed[i].Vals {
				mass += c
			}
			if mass != float64(g.Size()*(opt.Iterations+1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionRate(t *testing.T) {
	graphs := sampleGraphs(t, 30, 14)
	// Huge bucket space: essentially no collisions.
	low, err := CollisionRate(graphs, DefaultOptions(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if low > 0.01 {
		t.Fatalf("collision rate at 2^20 buckets = %g", low)
	}
	// Tiny bucket space: heavy collisions.
	high, err := CollisionRate(graphs, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if high < 0.5 {
		t.Fatalf("collision rate at 4 buckets = %g", high)
	}
	if _, err := CollisionRate(graphs, Options{Iterations: -1}, 16); err == nil {
		t.Fatal("bad options accepted")
	}
	if got, err := CollisionRate(nil, DefaultOptions(), 16); err != nil || got != 0 {
		t.Fatalf("empty corpus collision rate = %g, %v", got, err)
	}
}

func TestHashedSmallBucketsStillValidSimilarity(t *testing.T) {
	// Even under heavy collisions, similarities stay in [0,1] and
	// self-similarity stays 1.
	graphs := sampleGraphs(t, 10, 15)
	hashed, err := HashedFeatures(graphs, DefaultOptions(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hashed {
		if s := Similarity(hashed[i], hashed[i]); s != 1 {
			t.Fatalf("self similarity = %g", s)
		}
		for j := range hashed {
			if s := Similarity(hashed[i], hashed[j]); s < 0 || s > 1 {
				t.Fatalf("similarity out of range: %g", s)
			}
		}
	}
}
