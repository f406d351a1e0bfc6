package cluster

import (
	"fmt"
	"math"

	"jobgraph/internal/linalg"
)

// ChooseK estimates the number of clusters in a similarity matrix with
// the eigengap heuristic: compute the spectrum of the normalized
// affinity and return the k in [minK, maxK] after which the largest
// relative drop in eigenvalue occurs. The paper fixes k=5 by
// inspection; this automates the same inspection for new traces.
func ChooseK(affinity *linalg.SymMatrix, minK, maxK int) (int, error) {
	n := affinity.N
	if minK < 1 || maxK < minK || maxK >= n {
		return 0, fmt.Errorf("cluster: bad K range [%d,%d] for n=%d", minK, maxK, n)
	}
	l, err := normalizedAffinity(affinity)
	if err != nil {
		return 0, err
	}
	eig := linalg.SymmetricEigen(l, 0)

	bestK, bestGap := minK, math.Inf(-1)
	for k := minK; k <= maxK; k++ {
		gap := eig.Values[k-1] - eig.Values[k]
		if gap > bestGap {
			bestGap = gap
			bestK = k
		}
	}
	return bestK, nil
}
