package cluster

import (
	"fmt"
	"math"

	"jobgraph/internal/linalg"
)

// Silhouette returns the mean silhouette coefficient of a labeling given
// a pairwise distance matrix: for each point, b−a / max(a,b) with a the
// mean intra-cluster distance and b the smallest mean distance to
// another cluster. Values near 1 indicate tight, well-separated
// clusters. Points in singleton clusters contribute 0 (the sklearn
// convention).
func Silhouette(dist *linalg.SymMatrix, labels []int) (float64, error) {
	n := dist.N
	if len(labels) != n {
		return 0, fmt.Errorf("cluster: %d labels for %d points", len(labels), n)
	}
	sizes := make(map[int]int)
	for _, l := range labels {
		sizes[l]++
	}
	if len(sizes) < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs >=2 clusters, got %d", len(sizes))
	}

	var total float64
	for i := 0; i < n; i++ {
		li := labels[i]
		if sizes[li] == 1 {
			continue // contributes 0
		}
		sums := make(map[int]float64)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[labels[j]] += dist.At(i, j)
		}
		a := sums[li] / float64(sizes[li]-1)
		b := math.MaxFloat64
		for l, s := range sums {
			if l == li {
				continue
			}
			if m := s / float64(sizes[l]); m < b {
				b = m
			}
		}
		if mx := math.Max(a, b); mx > 0 {
			total += (b - a) / mx
		}
	}
	return total / float64(n), nil
}

// DistanceFromSimilarity converts a normalized similarity matrix
// (entries in [0,1], unit diagonal) to the induced kernel distance
// d(i,j) = √(2 − 2·s(i,j)), the Euclidean distance in the kernel's
// feature space.
func DistanceFromSimilarity(sim *linalg.SymMatrix) (*linalg.SymMatrix, error) {
	d := linalg.NewSymMatrix(sim.N)
	k := 0
	for i := 0; i < sim.N; i++ {
		for j := i; j < sim.N; j++ {
			s := sim.Data[k]
			if s < 0 || s > 1 {
				return nil, fmt.Errorf("cluster: similarity (%d,%d)=%g outside [0,1]", i, j, s)
			}
			d.Data[k] = math.Sqrt(math.Max(2-2*s, 0))
			k++
		}
	}
	return d, nil
}

// checkDistances rejects a distance matrix with a negative entry.
func checkDistances(dist *linalg.SymMatrix) error {
	k := 0
	for i := 0; i < dist.N; i++ {
		for j := i; j < dist.N; j++ {
			if dist.Data[k] < 0 {
				return fmt.Errorf("cluster: negative distance at (%d,%d)", i, j)
			}
			k++
		}
	}
	return nil
}

// contingency builds the contingency table between two labelings.
func contingency(a, b []int) (map[[2]int]int, map[int]int, map[int]int, error) {
	if len(a) != len(b) {
		return nil, nil, nil, fmt.Errorf("cluster: labelings differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, nil, nil, fmt.Errorf("cluster: empty labelings")
	}
	joint := make(map[[2]int]int)
	ca := make(map[int]int)
	cb := make(map[int]int)
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
		ca[a[i]]++
		cb[b[i]]++
	}
	return joint, ca, cb, nil
}

func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// ARI returns the adjusted Rand index between two labelings: 1 for
// identical partitions (up to renaming), ~0 for independent ones, and
// possibly negative for adversarial disagreement.
func ARI(a, b []int) (float64, error) {
	joint, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := len(a)
	var sumJoint, sumA, sumB float64
	for _, v := range joint {
		sumJoint += choose2(v)
	}
	for _, v := range ca {
		sumA += choose2(v)
	}
	for _, v := range cb {
		sumB += choose2(v)
	}
	total := choose2(n)
	if total == 0 {
		return 1, nil // single point: partitions trivially agree
	}
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		// Degenerate: both partitions are all-singletons or all-one-
		// cluster; identical by construction check.
		if sumJoint == expected {
			return 1, nil
		}
		return 0, nil
	}
	return (sumJoint - expected) / (maxIndex - expected), nil
}

// NMI returns the normalized mutual information between two labelings,
// normalized by the arithmetic mean of the entropies (sklearn default).
// Both-constant labelings return 1; one-constant returns 0.
func NMI(a, b []int) (float64, error) {
	joint, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := float64(len(a))
	var mi float64
	for key, v := range joint {
		pxy := float64(v) / n
		px := float64(ca[key[0]]) / n
		py := float64(cb[key[1]]) / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	ha := entropy(ca, n)
	hb := entropy(cb, n)
	if ha == 0 && hb == 0 {
		return 1, nil
	}
	if ha == 0 || hb == 0 {
		return 0, nil
	}
	v := mi / ((ha + hb) / 2)
	if v < 0 {
		v = 0 // floating point: MI is non-negative in exact arithmetic
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

func entropy(counts map[int]int, n float64) float64 {
	var h float64
	for _, c := range counts {
		p := float64(c) / n
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Purity returns the fraction of points whose predicted cluster's
// majority true class matches their own true class.
func Purity(pred, truth []int) (float64, error) {
	joint, _, _, err := contingency(pred, truth)
	if err != nil {
		return 0, err
	}
	majority := make(map[int]int) // pred cluster -> best joint count
	for key, v := range joint {
		if v > majority[key[0]] {
			majority[key[0]] = v
		}
	}
	var correct int
	for _, v := range majority {
		correct += v
	}
	return float64(correct) / float64(len(pred)), nil
}
