package wl

import (
	"fmt"
	"math/rand"
	"testing"

	"jobgraph/internal/dag"
	"jobgraph/internal/linalg"
)

// TestSymMatrixMatchesDense pins both kernel entry points (KernelMatrix
// over graphs, SymMatrixFromCompactOpts over vectors), expanded to the
// dense n² layout, to pairwise Similarity bit for bit: Analysis
// fingerprints hash that layout, so any divergence here would silently
// change Analysis output.
func TestSymMatrixMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := make([]*dag.Graph, 30)
	for i := range graphs {
		graphs[i] = randomDAG(rng, fmt.Sprintf("g%d", i), 2+rng.Intn(10))
	}
	vecs, _, err := Features(graphs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pairwise := linalg.NewMatrix(len(vecs), len(vecs))
	for i := range vecs {
		for j := range vecs {
			s := 1.0
			if i != j {
				s = Similarity(vecs[i], vecs[j])
			}
			pairwise.Set(i, j, s)
		}
	}
	for _, workers := range []int{1, 4} {
		check := func(name string, got *linalg.Matrix) {
			t.Helper()
			if got.Rows != pairwise.Rows || got.Cols != pairwise.Cols {
				t.Fatalf("workers=%d %s shape %dx%d, want %dx%d",
					workers, name, got.Rows, got.Cols, pairwise.Rows, pairwise.Cols)
			}
			for k := range pairwise.Data {
				if got.Data[k] != pairwise.Data[k] {
					t.Fatalf("workers=%d %s kernel differs from pairwise at flat index %d: %v != %v",
						workers, name, k, got.Data[k], pairwise.Data[k])
				}
			}
		}
		km, err := KernelMatrix(graphs, DefaultOptions(), workers)
		if err != nil {
			t.Fatal(err)
		}
		check("KernelMatrix", km.Dense())
		packed, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check("packed", packed.Dense())
	}
}

// mapDot is the naive reference dot over map vectors.
func mapDot(a, b map[int]float64) float64 {
	var s float64
	for k, va := range a {
		s += va * b[k]
	}
	return s
}

// TestCompactVectorDotMatchesMap pins the merge-join dot to a naive
// map dot, including self-kernels and vectors with no overlap.
func TestCompactVectorDotMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		a, b := map[int]float64{}, map[int]float64{}
		for k := 0; k < 40; k++ {
			if rng.Intn(3) == 0 {
				a[rng.Intn(60)] += float64(1 + rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				b[rng.Intn(60)] += float64(1 + rng.Intn(5))
			}
		}
		ca, cb := fromMap(a), fromMap(b)
		if got, want := ca.Dot(cb), mapDot(a, b); got != want {
			t.Fatalf("trial %d: compact dot %v != map dot %v", trial, got, want)
		}
		if got, want := ca.SelfDot(), mapDot(a, a); got != want {
			t.Fatalf("trial %d: compact self %v != map self %v", trial, got, want)
		}
	}
}
