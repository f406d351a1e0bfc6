package wl

import (
	"math/rand"
	"testing"

	"jobgraph/internal/dag"
)

// BenchmarkSymMatrixFromCompact measures the kernel-matrix stage in
// isolation: 100 feature vectors from realistic random DAGs, all
// pairwise normalized dot products. Run with -benchmem: the alloc
// budget here is the perf-gated wl.matrix stage cost.
func BenchmarkSymMatrixFromCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	graphs := make([]*dag.Graph, 100)
	for i := range graphs {
		graphs[i] = randomDAG(rng, "bench", 3+rng.Intn(12))
	}
	vecs, _, err := Features(graphs, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
