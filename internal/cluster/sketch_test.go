package cluster

import (
	"math"
	"math/rand"
	"testing"

	"jobgraph/internal/wl"
)

// plantedSparse builds perGroup points per group, each group supported
// on a disjoint feature block plus a little shared noise — clusters any
// cosine method must recover.
func plantedSparse(rng *rand.Rand, groups, perGroup int) ([]wl.CompactVector, []int) {
	var points []wl.CompactVector
	var truth []int
	for g := 0; g < groups; g++ {
		base := int32(g * 1000)
		for i := 0; i < perGroup; i++ {
			var v wl.CompactVector
			for f := int32(0); f < 20; f++ {
				v.Keys = append(v.Keys, base+f)
				v.Vals = append(v.Vals, 1+float64(rng.Intn(3)))
			}
			// Sparse cross-group noise, above every group block.
			v.Keys = append(v.Keys, 9000+int32(rng.Intn(10)))
			v.Vals = append(v.Vals, 1)
			points = append(points, v)
			truth = append(truth, g)
		}
	}
	return points, truth
}

func TestMiniBatchKMeansRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points, truth := plantedSparse(rng, 3, 40)
	res, err := MiniBatchKMeans(points, MiniBatchKMeansOptions{K: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != len(points) {
		t.Fatalf("labels %d, want %d", len(res.Labels), len(points))
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("ARI %.3f vs planted clusters", ari)
	}
	if res.Inertia < 0 {
		t.Fatalf("negative inertia %v", res.Inertia)
	}
}

func TestMiniBatchKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points, _ := plantedSparse(rng, 4, 25)
	a, err := MiniBatchKMeans(points, MiniBatchKMeansOptions{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MiniBatchKMeans(points, MiniBatchKMeansOptions{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs across identical runs", i)
		}
	}
}

// twoPoints is two orthogonal one-hot vectors.
func twoPoints() []wl.CompactVector {
	return []wl.CompactVector{
		{Keys: []int32{1}, Vals: []float64{1}},
		{Keys: []int32{2}, Vals: []float64{1}},
	}
}

func TestMiniBatchKMeansValidation(t *testing.T) {
	if _, err := MiniBatchKMeans(nil, MiniBatchKMeansOptions{K: 2}); err == nil {
		t.Fatal("zero points accepted")
	}
	pts := twoPoints()
	if _, err := MiniBatchKMeans(pts, MiniBatchKMeansOptions{K: 3}); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := MiniBatchKMeans(pts, MiniBatchKMeansOptions{K: 0}); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

func TestSketchKMedoidsRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points, truth := plantedSparse(rng, 3, 30)
	res, err := SketchKMedoids(points, nil, SketchKMedoidsOptions{K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("ARI %.3f vs planted clusters", ari)
	}
	if len(res.Medoids) != 3 {
		t.Fatalf("medoids %v", res.Medoids)
	}
	for c, m := range res.Medoids {
		if res.Labels[m] != c {
			t.Fatalf("medoid %d of cluster %d labeled %d", m, c, res.Labels[m])
		}
	}
}

func TestSketchKMedoidsWithNeighborLists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	points, truth := plantedSparse(rng, 3, 20)
	// Candidate graph: every point's same-group peers — what LSH
	// produces on well-separated clusters.
	neighbors := make([][]int32, len(points))
	for i := range points {
		for j := range points {
			if i != j && truth[i] == truth[j] {
				neighbors[i] = append(neighbors[i], int32(j))
			}
		}
	}
	res, err := SketchKMedoids(points, neighbors, SketchKMedoidsOptions{K: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("ARI %.3f vs planted clusters", ari)
	}
}

func TestSketchKMedoidsValidation(t *testing.T) {
	pts := twoPoints()
	if _, err := SketchKMedoids(nil, nil, SketchKMedoidsOptions{K: 1}); err == nil {
		t.Fatal("zero points accepted")
	}
	if _, err := SketchKMedoids(pts, [][]int32{{1}}, SketchKMedoidsOptions{K: 1}); err == nil {
		t.Fatal("short neighbour list accepted")
	}
	if _, err := SketchKMedoids(pts, [][]int32{{5}, {}}, SketchKMedoidsOptions{K: 1}); err == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
}

func TestSketchKMedoidsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points, _ := plantedSparse(rng, 2, 30)
	a, err := SketchKMedoids(points, nil, SketchKMedoidsOptions{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SketchKMedoids(points, nil, SketchKMedoidsOptions{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs across identical runs", i)
		}
	}
}

// TestSketchClusteringBitwiseReproducible reruns both sketch-space
// algorithms on fixed inputs and seeds: inertia, cost and centroids
// must agree bit for bit, not merely produce the same labels.
func TestSketchClusteringBitwiseReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	points, _ := plantedSparse(rng, 4, 30)
	// Overlapping supports, so centroid updates mix many keys.
	for i := range points {
		for k := range points[i].Vals {
			points[i].Vals[k] += float64(rng.Intn(4))
		}
	}
	mb0, err := MiniBatchKMeans(points, MiniBatchKMeansOptions{K: 4, Seed: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	km0, err := SketchKMedoids(points, nil, SketchKMedoidsOptions{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		mb, err := MiniBatchKMeans(points, MiniBatchKMeansOptions{K: 4, Seed: 3, BatchSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(mb.Inertia) != math.Float64bits(mb0.Inertia) {
			t.Fatalf("run %d: minibatch inertia %v, first run %v", run, mb.Inertia, mb0.Inertia)
		}
		for c := range mb0.Centers {
			a, b := mb0.Centers[c], mb.Centers[c]
			if len(a.Keys) != len(b.Keys) {
				t.Fatalf("run %d: center %d has %d keys, first run %d", run, c, len(b.Keys), len(a.Keys))
			}
			for k := range a.Keys {
				if a.Keys[k] != b.Keys[k] || math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
					t.Fatalf("run %d: center %d differs at entry %d", run, c, k)
				}
			}
		}
		km, err := SketchKMedoids(points, nil, SketchKMedoidsOptions{K: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(km.Cost) != math.Float64bits(km0.Cost) {
			t.Fatalf("run %d: kmedoids cost %v, first run %v", run, km.Cost, km0.Cost)
		}
	}
}
