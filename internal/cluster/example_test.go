package cluster_test

import (
	"fmt"

	"jobgraph/internal/cluster"
	"jobgraph/internal/linalg"
)

func ExampleSpectral() {
	// A block-diagonal affinity: two tight groups of three items.
	aff := linalg.NewSymMatrix(6)
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			switch {
			case i == j:
				aff.Set(i, j, 1)
			case (i < 3) == (j < 3):
				aff.Set(i, j, 0.9)
			default:
				aff.Set(i, j, 0.05)
			}
		}
	}
	res, err := cluster.Spectral(aff, cluster.SpectralOptions{
		K:      2,
		KMeans: cluster.KMeansOptions{Seed: 1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Labels[0] == res.Labels[1], res.Labels[1] == res.Labels[2])
	fmt.Println(res.Labels[0] != res.Labels[3])
	// Output:
	// true true
	// true
}
