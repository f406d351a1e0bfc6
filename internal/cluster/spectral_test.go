package cluster

import (
	"testing"

	"jobgraph/internal/linalg"
)

// blockAffinity builds a block-diagonal affinity: items in the same
// block have similarity hi, across blocks lo.
func blockAffinity(blocks []int, hi, lo float64) (*linalg.SymMatrix, []int) {
	n := 0
	for _, b := range blocks {
		n += b
	}
	truth := make([]int, 0, n)
	for c, b := range blocks {
		for i := 0; i < b; i++ {
			truth = append(truth, c)
		}
	}
	m := linalg.NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			switch {
			case i == j:
				m.Set(i, j, 1)
			case truth[i] == truth[j]:
				m.Set(i, j, hi)
			default:
				m.Set(i, j, lo)
			}
		}
	}
	return m, truth
}

func TestSpectralRecoversBlocks(t *testing.T) {
	aff, truth := blockAffinity([]int{20, 15, 10}, 0.9, 0.05)
	res, err := Spectral(aff, SpectralOptions{K: 3, KMeans: KMeansOptions{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1 {
		t.Fatalf("ARI = %g, want 1 on block-diagonal affinity", ari)
	}
}

func TestSpectralFiveGroupsPaperScale(t *testing.T) {
	// The paper clusters 100 jobs into 5 groups; a dominant block plus
	// four smaller ones mirrors its 75%-in-group-A outcome.
	aff, truth := blockAffinity([]int{75, 10, 6, 5, 4}, 0.85, 0.02)
	res, err := Spectral(aff, SpectralOptions{K: 5, KMeans: KMeansOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("ARI = %g, want ~1 at paper scale", ari)
	}
}

func TestSpectralValidation(t *testing.T) {
	aff, _ := blockAffinity([]int{4, 4}, 0.9, 0.1)
	if _, err := Spectral(aff, SpectralOptions{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Spectral(aff, SpectralOptions{K: 9}); err == nil {
		t.Fatal("k>n accepted")
	}
	neg, _ := blockAffinity([]int{2, 2}, 0.5, 0.1)
	neg.Set(0, 1, -0.5)
	if _, err := Spectral(neg, SpectralOptions{K: 2}); err == nil {
		t.Fatal("negative affinity accepted")
	}
}

func TestSpectralEigenvaluesDescending(t *testing.T) {
	aff, _ := blockAffinity([]int{10, 10}, 0.8, 0.1)
	res, err := Spectral(aff, SpectralOptions{K: 2, KMeans: KMeansOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", res.Eigenvalues)
		}
	}
	gap, err := res.EigenGap(2)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 0 {
		t.Fatalf("eigen gap after true K should be positive, got %g", gap)
	}
	if _, err := res.EigenGap(0); err == nil {
		t.Fatal("gap k=0 accepted")
	}
	if _, err := res.EigenGap(len(res.Eigenvalues)); err == nil {
		t.Fatal("gap k=n accepted")
	}
}

func TestSpectralEmbeddingRowsUnit(t *testing.T) {
	aff, _ := blockAffinity([]int{8, 8}, 0.9, 0.1)
	res, err := Spectral(aff, SpectralOptions{K: 2, KMeans: KMeansOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Embedding.Rows; i++ {
		n := linalg.Norm2(res.Embedding.Row(i))
		if n < 0.999 || n > 1.001 {
			t.Fatalf("embedding row %d norm = %g", i, n)
		}
	}
}

func TestSpectralIsolatedItem(t *testing.T) {
	// One item with zero affinity to everything (including itself)
	// must not crash the degree normalization.
	m := linalg.NewSymMatrix(5)
	for i := 0; i < 4; i++ {
		m.Set(i, i, 1)
		for j := i + 1; j < 4; j++ {
			m.Set(i, j, 0.8)
		}
	}
	res, err := Spectral(m, SpectralOptions{K: 2, KMeans: KMeansOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 5 {
		t.Fatalf("labels = %v", res.Labels)
	}
}
