package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"jobgraph/internal/linalg"
)

// KMedoidsOptions configures the PAM-style k-medoids clustering.
type KMedoidsOptions struct {
	K        int
	MaxIter  int // swap rounds; default 50
	Restarts int // independent seedings; default 4
	Seed     int64
}

func (o *KMedoidsOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
}

// KMedoidsResult is the best clustering found across restarts.
type KMedoidsResult struct {
	Labels  []int // cluster per point, in [0, K)
	Medoids []int // point index serving as each cluster's center
	Cost    float64
}

// KMedoids clusters n items given their pairwise distance matrix using
// the alternate (Voronoi) iteration of PAM: assign every point to its
// nearest medoid, then re-center each cluster on its cost-minimizing
// member. Unlike spectral clustering it needs no eigendecomposition and
// its centers are actual jobs — the exemplars of Figure 8 fall out for
// free — at the cost of a weaker global objective.
func KMedoids(dist *linalg.SymMatrix, opt KMedoidsOptions) (*KMedoidsResult, error) {
	n := dist.N
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", opt.K, n)
	}
	if err := checkDistances(dist); err != nil {
		return nil, err
	}
	opt.defaults()
	rng := rand.New(rand.NewSource(opt.Seed))

	var best *KMedoidsResult
	for r := 0; r < opt.Restarts; r++ {
		res := pamOnce(dist, opt.K, opt.MaxIter, rng)
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	return best, nil
}

func pamOnce(dist *linalg.SymMatrix, k, maxIter int, rng *rand.Rand) *KMedoidsResult {
	n := dist.N
	// Greedy D²-style seeding: first medoid random, then farthest-from-
	// current-medoids points (deterministic given the RNG).
	medoids := make([]int, 0, k)
	medoids = append(medoids, rng.Intn(n))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist.At(i, medoids[0])
	}
	for len(medoids) < k {
		far, farD := 0, -1.0
		for i, d := range minDist {
			if d > farD {
				far, farD = i, d
			}
		}
		medoids = append(medoids, far)
		for i := range minDist {
			if d := dist.At(i, far); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	labels := make([]int, n)
	assign := func() float64 {
		var cost float64
		for i := 0; i < n; i++ {
			bestC, bestD := 0, math.MaxFloat64
			for c, m := range medoids {
				if d := dist.At(i, m); d < bestD {
					bestC, bestD = c, d
				}
			}
			labels[i] = bestC
			cost += bestD
		}
		return cost
	}
	cost := assign()

	for it := 0; it < maxIter; it++ {
		changed := false
		for c := range medoids {
			// Re-center cluster c on its cost-minimizing member.
			bestM, bestCost := medoids[c], math.MaxFloat64
			for i := 0; i < n; i++ {
				if labels[i] != c {
					continue
				}
				var s float64
				for j := 0; j < n; j++ {
					if labels[j] == c {
						s += dist.At(i, j)
					}
				}
				if s < bestCost {
					bestM, bestCost = i, s
				}
			}
			if bestM != medoids[c] {
				medoids[c] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
		cost = assign()
	}
	return &KMedoidsResult{
		Labels:  append([]int(nil), labels...),
		Medoids: append([]int(nil), medoids...),
		Cost:    cost,
	}
}
