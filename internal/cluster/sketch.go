// Sketch-space clustering: grouping jobs by their hashed WL feature
// vectors without ever forming the dense kernel matrix. Two algorithms
// cover the scale regimes the exact spectral path cannot reach:
//
//   - MiniBatchKMeans — spherical (cosine) k-means over sparse vectors
//     with mini-batch centroid updates (Sculley 2010). Cost per batch is
//     O(batch × K × nnz); corpus size only enters through the final full
//     assignment pass, so millions of jobs cluster in seconds.
//   - SketchKMedoids — PAM-style k-medoids where swap proposals come
//     from an ANN candidate graph instead of the full O(n²) pairwise
//     scan, so re-centering only ever inspects jobs the LSH tables
//     already consider similar. Centers are actual jobs (exemplars).
//
// Both operate on []map[int]float64 — plain sparse vectors — so the
// package stays decoupled from internal/wl; callers convert each
// wl.CompactVector. The exact spectral path (spectral.go) remains the
// reference on ≤100-job samples; the agreement between the two is part
// of the accuracy-vs-speed gate.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"jobgraph/internal/obs"
)

var (
	obsMiniBatchRuns  = obs.Default().Counter("cluster.minibatch.runs")
	obsMiniBatchIters = obs.Default().Histogram("cluster.minibatch.iterations")
	obsSketchPAMRuns  = obs.Default().Counter("cluster.sketchpam.runs")
)

// MiniBatchKMeansOptions configures spherical mini-batch k-means.
type MiniBatchKMeansOptions struct {
	K         int
	BatchSize int     // points per update batch; default 256
	MaxIter   int     // update batches; default 100
	Tol       float64 // stop when no center moved more than Tol (cosine distance); default 1e-6
	Seed      int64
}

func (o *MiniBatchKMeansOptions) defaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
}

// MiniBatchKMeansResult is the clustering of one mini-batch descent.
type MiniBatchKMeansResult struct {
	Labels     []int             // cluster per point, in [0, K)
	Centers    []map[int]float64 // unit-norm sparse centroids
	Inertia    float64           // sum of cosine distances to assigned centroid
	Iterations int               // update batches consumed
}

// MiniBatchKMeans clusters sparse non-negative vectors into K groups by
// cosine distance. Deterministic for a fixed seed.
func MiniBatchKMeans(points []map[int]float64, opt MiniBatchKMeansOptions) (*MiniBatchKMeansResult, error) {
	opt.defaults()
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: minibatch kmeans over zero points")
	}
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", opt.K, n)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	norms := make([]float64, n)
	for i, p := range points {
		norms[i] = sparseNorm(p)
	}

	centers := seedSparsePlusPlus(points, norms, opt.K, rng)
	counts := make([]int, opt.K)

	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		maxMove := 0.0
		for b := 0; b < opt.BatchSize; b++ {
			i := rng.Intn(n)
			c := nearestSparse(centers, points[i], norms[i])
			counts[c]++
			// Sculley update with per-center learning rate 1/count,
			// then re-projection onto the unit sphere (spherical
			// mini-batch k-means).
			lr := 1.0 / float64(counts[c])
			moved := blendSparse(centers[c], points[i], norms[i], lr)
			if moved > maxMove {
				maxMove = moved
			}
		}
		if maxMove < opt.Tol {
			iters++
			break
		}
	}

	labels, inertia := assignSparse(centers, points, norms)
	// Revive empty clusters on the member whose assignment is worst —
	// the farthest-point reseed the dense path also uses.
	for attempt := 0; attempt < 3 && distinctLabels(labels) < opt.K; attempt++ {
		empty := emptyCluster(labels, opt.K)
		far := farthestSparse(centers, points, norms, labels)
		centers[empty] = unitSparse(points[far], norms[far])
		labels, inertia = assignSparse(centers, points, norms)
	}

	obsMiniBatchRuns.Add(1)
	obsMiniBatchIters.Observe(float64(iters))
	return &MiniBatchKMeansResult{
		Labels:     labels,
		Centers:    centers,
		Inertia:    inertia,
		Iterations: iters,
	}, nil
}

// SketchKMedoidsOptions configures candidate-graph k-medoids.
type SketchKMedoidsOptions struct {
	K            int
	MaxIter      int // swap rounds; default 30
	MaxProposals int // medoid proposals per cluster per round; default 8
	Seed         int64
}

func (o *SketchKMedoidsOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	if o.MaxProposals <= 0 {
		o.MaxProposals = 8
	}
}

// SketchKMedoidsResult is the clustering plus its exemplar jobs.
type SketchKMedoidsResult struct {
	Labels  []int
	Medoids []int // point index serving as each cluster's exemplar
	Cost    float64
}

// SketchKMedoids clusters sparse vectors by cosine distance with PAM's
// Voronoi iteration, drawing re-centering proposals from neighbors —
// per-point candidate lists (an ANN index's CandidateNeighbors output)
// — instead of scanning all n members. neighbors may be nil, in which
// case proposals are sampled from cluster members only; it must
// otherwise have one list per point with in-range indexes.
func SketchKMedoids(points []map[int]float64, neighbors [][]int32, opt SketchKMedoidsOptions) (*SketchKMedoidsResult, error) {
	opt.defaults()
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: sketch kmedoids over zero points")
	}
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", opt.K, n)
	}
	if neighbors != nil && len(neighbors) != n {
		return nil, fmt.Errorf("cluster: %d neighbour lists for %d points", len(neighbors), n)
	}
	for i := range neighbors {
		for _, j := range neighbors[i] {
			if int(j) < 0 || int(j) >= n {
				return nil, fmt.Errorf("cluster: neighbour %d of point %d out of range", j, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	norms := make([]float64, n)
	for i, p := range points {
		norms[i] = sparseNorm(p)
	}
	dist := func(a, b int) float64 {
		return cosDist(points[a], norms[a], points[b], norms[b])
	}

	// Farthest-first seeding from a random start (same scheme as the
	// dense PAM path, distances on demand).
	medoids := make([]int, 0, opt.K)
	medoids = append(medoids, rng.Intn(n))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist(i, medoids[0])
	}
	for len(medoids) < opt.K {
		far, farD := 0, -1.0
		for i, d := range minDist {
			if d > farD {
				far, farD = i, d
			}
		}
		medoids = append(medoids, far)
		for i := range minDist {
			if d := dist(i, far); d < minDist[i] {
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
				if d := dist(i, m); d < bestD {
					bestC, bestD = c, d
				}
			}
			labels[i] = bestC
			cost += bestD
		}
		return cost
	}
	cost := assign()

	members := make([][]int, opt.K)
	for it := 0; it < opt.MaxIter; it++ {
		for c := range members {
			members[c] = members[c][:0]
		}
		for i, l := range labels {
			members[l] = append(members[l], i)
		}
		changed := false
		for c := range medoids {
			props := proposeMedoids(medoids[c], members[c], neighbors, labels, c, opt.MaxProposals, rng)
			bestM, bestCost := medoids[c], clusterCost(medoids[c], members[c], dist)
			for _, p := range props {
				if s := clusterCost(p, members[c], dist); s < bestCost {
					bestM, bestCost = p, s
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
	obsSketchPAMRuns.Add(1)
	return &SketchKMedoidsResult{
		Labels:  append([]int(nil), labels...),
		Medoids: append([]int(nil), medoids...),
		Cost:    cost,
	}, nil
}

// proposeMedoids gathers up to max re-centering candidates for cluster
// c: the current medoid's candidate-graph neighbours that live in the
// cluster first (the informed proposals), then random members to fill.
func proposeMedoids(medoid int, members []int, neighbors [][]int32, labels []int, c, max int, rng *rand.Rand) []int {
	props := make([]int, 0, max)
	seen := map[int]struct{}{medoid: {}}
	if neighbors != nil {
		for _, j := range neighbors[medoid] {
			if len(props) >= max {
				break
			}
			if labels[j] != c {
				continue
			}
			if _, dup := seen[int(j)]; dup {
				continue
			}
			seen[int(j)] = struct{}{}
			props = append(props, int(j))
		}
	}
	for tries := 0; len(props) < max && tries < 4*max && len(members) > 1; tries++ {
		j := members[rng.Intn(len(members))]
		if _, dup := seen[j]; dup {
			continue
		}
		seen[j] = struct{}{}
		props = append(props, j)
	}
	sort.Ints(props)
	return props
}

// clusterCost is the total distance from candidate medoid m to the
// cluster's members.
func clusterCost(m int, members []int, dist func(a, b int) float64) float64 {
	var s float64
	for _, i := range members {
		s += dist(m, i)
	}
	return s
}

// --- sparse vector helpers ---

func sparseNorm(v map[int]float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func sparseDot(a, b map[int]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

// cosDist is 1 - cosine similarity, with the empty-vector conventions
// of wl.Similarity (two empties coincide, empty vs non-empty is as far
// as possible).
func cosDist(a map[int]float64, na float64, b map[int]float64, nb float64) float64 {
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	cos := sparseDot(a, b) / (na * nb)
	if cos > 1 {
		cos = 1
	}
	if cos < 0 {
		cos = 0
	}
	return 1 - cos
}

// unitSparse copies v scaled to unit norm (zero vectors copy as-is).
func unitSparse(v map[int]float64, norm float64) map[int]float64 {
	out := make(map[int]float64, len(v))
	for k, x := range v {
		if norm > 0 {
			out[k] = x / norm
		} else {
			out[k] = x
		}
	}
	return out
}

// centerNorm is the norm of a centroid map.
func centerNorm(c map[int]float64) float64 { return sparseNorm(c) }

// nearestSparse returns the centroid with the highest cosine similarity
// to p (centers are unit-norm, so the dot product suffices).
func nearestSparse(centers []map[int]float64, p map[int]float64, norm float64) int {
	best, bestDot := 0, math.Inf(-1)
	for c, ctr := range centers {
		if d := sparseDot(ctr, p); d > bestDot {
			best, bestDot = c, d
		}
	}
	_ = norm
	return best
}

// blendSparse moves center c toward the unit-normalized point by
// learning rate lr and re-projects it onto the unit sphere, returning
// the cosine distance the center moved. Entries that decay below 1e-9
// are pruned so long runs don't accrete the union of all supports.
func blendSparse(c map[int]float64, p map[int]float64, pNorm, lr float64) float64 {
	before := make(map[int]float64, len(c))
	for k, x := range c {
		before[k] = x
	}
	for k := range c {
		c[k] *= 1 - lr
	}
	if pNorm > 0 {
		for k, x := range p {
			c[k] += lr * x / pNorm
		}
	}
	n := centerNorm(c)
	for k, x := range c {
		y := x
		if n > 0 {
			y = x / n
		}
		if math.Abs(y) < 1e-9 {
			delete(c, k)
			continue
		}
		c[k] = y
	}
	return cosDist(before, sparseNorm(before), c, centerNorm(c))
}

// assignSparse labels every point with its nearest centroid and totals
// the cosine-distance inertia.
func assignSparse(centers []map[int]float64, points []map[int]float64, norms []float64) ([]int, float64) {
	labels := make([]int, len(points))
	var inertia float64
	for i, p := range points {
		c := nearestSparse(centers, p, norms[i])
		labels[i] = c
		inertia += cosDist(p, norms[i], centers[c], centerNorm(centers[c]))
	}
	return labels, inertia
}

// seedSparsePlusPlus picks K initial unit-norm centroids with D²
// weighting under cosine distance.
func seedSparsePlusPlus(points []map[int]float64, norms []float64, k int, rng *rand.Rand) []map[int]float64 {
	n := len(points)
	first := rng.Intn(n)
	centers := []map[int]float64{unitSparse(points[first], norms[first])}
	dist := make([]float64, n)
	for i, p := range points {
		dist[i] = cosDist(p, norms[i], centers[0], 1)
	}
	for len(centers) < k {
		var total float64
		for _, v := range dist {
			total += v
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			for i, v := range dist {
				acc += v
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := unitSparse(points[idx], norms[idx])
		centers = append(centers, c)
		for i, p := range points {
			if d := cosDist(p, norms[i], c, 1); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return centers
}

// emptyCluster returns the first cluster id in [0,k) with no members.
func emptyCluster(labels []int, k int) int {
	pop := make([]int, k)
	for _, l := range labels {
		pop[l]++
	}
	for c, p := range pop {
		if p == 0 {
			return c
		}
	}
	return 0
}

// farthestSparse returns the point farthest (cosine) from its assigned
// centroid.
func farthestSparse(centers []map[int]float64, points []map[int]float64, norms []float64, labels []int) int {
	bestI, bestD := 0, -1.0
	for i, p := range points {
		c := centers[labels[i]]
		if d := cosDist(p, norms[i], c, centerNorm(c)); d > bestD {
			bestI, bestD = i, d
		}
	}
	return bestI
}
