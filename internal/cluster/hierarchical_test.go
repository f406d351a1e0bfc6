package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jobgraph/internal/linalg"
)

// distFromPoints builds a Euclidean distance matrix.
func distFromPoints(pts [][]float64) *linalg.SymMatrix {
	n := len(pts)
	m := linalg.NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d, _ := linalg.Dist2(pts[i], pts[j])
			m.Set(i, j, d)
		}
	}
	return m
}

func TestHierarchicalRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, truth := blobs(rng, 3, 15, 10)
	dist := distFromPoints(points)
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		res, err := Hierarchical(dist, 3, link)
		if err != nil {
			t.Fatal(err)
		}
		ari, err := ARI(res.Labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		if ari != 1 {
			t.Fatalf("%s linkage ARI = %g, want 1", link, ari)
		}
	}
}

func TestHierarchicalDendrogramShape(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}, {11}}
	res, err := Hierarchical(distFromPoints(pts), 2, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 3 {
		t.Fatalf("merges = %d, want n-1 = 3", len(res.Merges))
	}
	// First merges at distance 1 (the two tight pairs), last at the big
	// gap.
	if res.Heights[0] != 1 || res.Heights[1] != 1 {
		t.Fatalf("heights = %v", res.Heights)
	}
	if res.Heights[2] <= res.Heights[1] {
		t.Fatalf("final merge height %g not the largest", res.Heights[2])
	}
	// Cut at 2: {0,1} and {2,3}.
	if res.Labels[0] != res.Labels[1] || res.Labels[2] != res.Labels[3] ||
		res.Labels[0] == res.Labels[2] {
		t.Fatalf("labels = %v", res.Labels)
	}
}

func TestHierarchicalSingleVsCompleteChaining(t *testing.T) {
	// A chain of equidistant points: single linkage chains everything
	// together early; complete linkage resists. Both must still produce
	// valid k=2 cuts.
	pts := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}}
	dist := distFromPoints(pts)
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage} {
		res, err := Hierarchical(dist, 2, link)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, l := range res.Labels {
			seen[l] = true
		}
		if len(seen) != 2 {
			t.Fatalf("%s linkage produced %d clusters", link, len(seen))
		}
	}
}

func TestHierarchicalValidation(t *testing.T) {
	dist := distFromPoints([][]float64{{0}, {1}, {2}})
	if _, err := Hierarchical(dist, 0, AverageLinkage); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Hierarchical(dist, 4, AverageLinkage); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Hierarchical(dist, 2, Linkage(9)); err == nil {
		t.Fatal("unknown linkage accepted")
	}
	neg := linalg.NewSymMatrix(2)
	neg.Set(0, 1, -1)
	if _, err := Hierarchical(neg, 1, AverageLinkage); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestHierarchicalKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {5}, {9}}
	res, err := Hierarchical(distFromPoints(pts), 3, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("labels = %v", res.Labels)
	}
}

func TestHierarchicalK1(t *testing.T) {
	pts := [][]float64{{0}, {5}, {9}}
	res, err := Hierarchical(distFromPoints(pts), 1, CompleteLinkage)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
}

func TestHierarchicalInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		dist := distFromPoints(pts)
		k := 1 + rng.Intn(n)
		link := []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage}[rng.Intn(3)]
		res, err := Hierarchical(dist, k, link)
		if err != nil {
			return false
		}
		// Exactly k clusters, labels in [0,k).
		seen := map[int]bool{}
		for _, l := range res.Labels {
			if l < 0 || l >= k {
				return false
			}
			seen[l] = true
		}
		if len(seen) != k {
			return false
		}
		// Dendrogram has n-1 merges with monotone heights for
		// complete/average linkage (single can also invert only never —
		// all three Lance-Williams forms here are monotone).
		if len(res.Merges) != n-1 {
			return false
		}
		for i := 1; i < len(res.Heights); i++ {
			if res.Heights[i] < res.Heights[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalOnSimilarityPipeline(t *testing.T) {
	// End-to-end on a block affinity, via kernel-distance conversion.
	aff, truth := blockAffinity([]int{12, 8, 6}, 0.9, 0.05)
	dist, err := DistanceFromSimilarity(aff)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Hierarchical(dist, 3, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1 {
		t.Fatalf("ARI = %g", ari)
	}
}
