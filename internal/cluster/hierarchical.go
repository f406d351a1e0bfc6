package cluster

import (
	"fmt"
	"math"

	"jobgraph/internal/linalg"
)

// Linkage selects how inter-cluster distance is computed during
// agglomerative clustering.
type Linkage int

// Supported linkage criteria.
const (
	// SingleLinkage merges on the minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges on the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges on the mean pairwise distance (UPGMA).
	AverageLinkage
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return fmt.Sprintf("linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step of the dendrogram.
type Merge struct {
	A, B     int     // cluster ids merged (initial clusters are 0..n-1)
	Into     int     // id of the new cluster (n, n+1, ...)
	Distance float64 // linkage distance at which the merge happened
}

// HierarchicalResult is the full dendrogram plus a flat cut.
type HierarchicalResult struct {
	Labels  []int   // flat clustering from cutting the dendrogram at K
	Merges  []Merge // n-1 merges, in order of increasing distance
	Heights []float64
}

// Hierarchical performs agglomerative clustering on a pairwise distance
// matrix and cuts the dendrogram into k flat clusters — the third
// comparator alongside spectral clustering (paper) and feature-space
// k-means (prior work [14]). The Lance–Williams recurrence updates
// distances in O(n²) per merge; fine for paper-scale samples.
func Hierarchical(dist *linalg.SymMatrix, k int, linkage Linkage) (*HierarchicalResult, error) {
	n := dist.N
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, n)
	}
	switch linkage {
	case SingleLinkage, CompleteLinkage, AverageLinkage:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %d", int(linkage))
	}
	if err := checkDistances(dist); err != nil {
		return nil, err
	}

	// active cluster id -> member count; d holds current inter-cluster
	// distances keyed by unordered id pair.
	sizes := make(map[int]int, 2*n)
	members := make(map[int][]int, 2*n) // cluster id -> original points
	for i := 0; i < n; i++ {
		sizes[i] = 1
		members[i] = []int{i}
	}
	type pair [2]int
	key := func(a, b int) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	d := make(map[pair]float64, n*n/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[key(i, j)] = dist.At(i, j)
		}
	}

	res := &HierarchicalResult{}
	active := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		active[i] = true
	}
	next := n
	for len(active) > 1 {
		// Find the closest active pair (deterministic tie-break on ids).
		bestA, bestB := -1, -1
		bestD := math.Inf(1)
		for p, dd := range d {
			if !active[p[0]] || !active[p[1]] {
				continue
			}
			if dd < bestD || (dd == bestD && (bestA == -1 || p[0] < bestA || (p[0] == bestA && p[1] < bestB))) {
				bestA, bestB, bestD = p[0], p[1], dd
			}
		}
		// Merge bestA+bestB into `next`.
		for id := range active {
			if id == bestA || id == bestB {
				continue
			}
			da := d[key(bestA, id)]
			db := d[key(bestB, id)]
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(da, db)
			case CompleteLinkage:
				nd = math.Max(da, db)
			case AverageLinkage:
				sa, sb := float64(sizes[bestA]), float64(sizes[bestB])
				nd = (sa*da + sb*db) / (sa + sb)
			}
			d[key(next, id)] = nd
		}
		delete(active, bestA)
		delete(active, bestB)
		active[next] = true
		sizes[next] = sizes[bestA] + sizes[bestB]
		members[next] = append(append([]int(nil), members[bestA]...), members[bestB]...)
		res.Merges = append(res.Merges, Merge{A: bestA, B: bestB, Into: next, Distance: bestD})
		res.Heights = append(res.Heights, bestD)
		next++
	}

	// Cut: undo the last k-1 merges. Clusters remaining after n-k
	// merges are the flat clustering.
	labels := make([]int, n)
	clusterIDs := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		clusterIDs[i] = true
	}
	for _, m := range res.Merges[:n-k] {
		delete(clusterIDs, m.A)
		delete(clusterIDs, m.B)
		clusterIDs[m.Into] = true
	}
	// Relabel compactly in ascending cluster-id order.
	compact := make(map[int]int, k)
	for id := 0; id < next; id++ {
		if clusterIDs[id] {
			compact[id] = len(compact)
		}
	}
	for id := range clusterIDs {
		for _, pt := range members[id] {
			labels[pt] = compact[id]
		}
	}
	res.Labels = labels
	return res, nil
}
