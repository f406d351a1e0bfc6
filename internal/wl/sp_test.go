package wl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
)

func spOptions(h int) Options {
	return Options{Iterations: h, UseTypeLabels: true, Base: BaseShortestPath}
}

func TestSPSelfSimilarityOne(t *testing.T) {
	g := chainGraph(t, "c", 5)
	s, err := GraphSimilarity(g, g, spOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self similarity = %g", s)
	}
}

func TestSPDistancesChain(t *testing.T) {
	g := chainGraph(t, "c", 4) // positions 0..3 hold nodes 1..4
	dist := []int32{-1, -1, -1, -1}
	from := func(src int32) []int32 {
		t.Helper()
		for i := range dist {
			dist[i] = -1
		}
		return bfsFrom(g, src, dist, nil)
	}
	if reached := from(0); len(reached) != 4 || dist[3] != 3 || dist[1] != 1 {
		t.Fatalf("chain distances from node 1: reached %v, dist %v", reached, dist)
	}
	if reached := from(1); reached[0] != 1 || dist[1] != 0 {
		t.Fatalf("self pair of node 2: reached %v, dist %v", reached, dist)
	}
	if reached := from(3); len(reached) != 1 || dist[0] != -1 {
		t.Fatalf("directed SP should not go backwards: reached %v, dist %v", reached, dist)
	}
}

func TestSPSingleNodeNonEmpty(t *testing.T) {
	g := dag.New("one")
	if err := g.AddNode(dag.Node{ID: 1, Type: taskname.TypeMap}); err != nil {
		t.Fatal(err)
	}
	vecs, _, err := Features([]*dag.Graph{g}, spOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs[0].Keys) == 0 {
		t.Fatal("single-node SP vector is empty")
	}
}

func TestSPDistinguishesPathLengths(t *testing.T) {
	// Subtree WL at h=0 sees only label multisets; the SP base sees
	// distances even at h=0. Two graphs with the same label multiset
	// but different wiring must differ under SP at h=0.
	a := chainGraph(t, "a", 3) // M->R->R: has a distance-2 pair
	b := dag.New("b")          // M->R, R isolated... keep connected:
	for i, typ := range []taskname.Type{taskname.TypeMap, taskname.TypeReduce, taskname.TypeReduce} {
		if err := b.AddNode(dag.Node{ID: dag.NodeID(i + 1), Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	// M feeds both R's directly: no distance-2 pair.
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	subtree, err := GraphSimilarity(a, b, Options{Iterations: 0, UseTypeLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if subtree != 1 {
		t.Fatalf("subtree h=0 should conflate same-label graphs: %g", subtree)
	}
	sp, err := GraphSimilarity(a, b, spOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if sp >= 1 {
		t.Fatalf("SP h=0 should separate different wirings: %g", sp)
	}
}

func TestSPIsomorphicGraphsOne(t *testing.T) {
	a := triangleGraph(t, "a", 3)
	b := triangleGraph(t, "b", 3)
	s, err := GraphSimilarity(a, b, spOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("isomorphic SP similarity = %g", s)
	}
}

func TestSPBoundedSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDAG(rng, "a", 1+rng.Intn(10))
		b := randomDAG(rng, "b", 1+rng.Intn(10))
		s1, err1 := GraphSimilarity(a, b, spOptions(rng.Intn(3)))
		s2, err2 := GraphSimilarity(b, a, spOptions(0))
		_ = s2
		if err1 != nil || err2 != nil {
			return false
		}
		return s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSPVectorMassProperty(t *testing.T) {
	// Each iteration contributes exactly one count per reachable
	// ordered pair (including self pairs): mass = (h+1) * Σ|reach(u)+1|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		h := rng.Intn(3)
		g := randomDAG(rng, "g", n)
		var pairs int
		for _, u := range g.NodeIDs() {
			pairs += len(g.Reachable(u)) + 1 // + self
		}
		vecs, _, err := Features([]*dag.Graph{g}, spOptions(h))
		if err != nil {
			return false
		}
		var mass float64
		for _, c := range vecs[0].Vals {
			mass += c
		}
		return mass == float64((h+1)*pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSPKernelMatrix(t *testing.T) {
	graphs := sampleGraphs(t, 10, 5)
	m, err := KernelMatrix(graphs, spOptions(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if m.At(i, i) != 1 {
			t.Fatalf("diagonal = %g", m.At(i, i))
		}
		for j := 0; j < 10; j++ {
			if v := m.At(i, j); v < 0 || v > 1 || math.Abs(v-m.At(j, i)) > 1e-15 {
				t.Fatalf("entry (%d,%d) = %g", i, j, v)
			}
		}
	}
}

func TestBaseKernelValidation(t *testing.T) {
	_, err := GraphSimilarity(dag.New("a"), dag.New("b"),
		Options{Iterations: 1, Base: BaseKernel(9)})
	if err == nil {
		t.Fatal("unknown base kernel accepted")
	}
}

func TestBaseKernelString(t *testing.T) {
	if BaseSubtree.String() != "subtree" || BaseShortestPath.String() != "shortest-path" {
		t.Fatal("base kernel names")
	}
	if BaseKernel(9).String() != "base(9)" {
		t.Fatal("unknown base name")
	}
}

func edgeOptions(h int) Options {
	return Options{Iterations: h, UseTypeLabels: true, Base: BaseEdge}
}

func TestEdgeKernelSelfSimilarityOne(t *testing.T) {
	g := triangleGraph(t, "t", 4)
	s, err := GraphSimilarity(g, g, edgeOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self similarity = %g", s)
	}
}

func TestEdgeKernelSeparatesWiring(t *testing.T) {
	// Same node-label multiset, different edges: edge kernel at h=0
	// must separate what subtree h=0 conflates.
	a := chainGraph(t, "a", 3) // M->R->R
	b := dag.New("b")
	for i, typ := range []taskname.Type{taskname.TypeMap, taskname.TypeReduce, taskname.TypeReduce} {
		if err := b.AddNode(dag.Node{ID: dag.NodeID(i + 1), Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	s, err := GraphSimilarity(a, b, edgeOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 {
		t.Fatalf("edge kernel h=0 similarity = %g, want < 1", s)
	}
}

func TestEdgeKernelEdgeFreeGraphNonEmpty(t *testing.T) {
	g := dag.New("one")
	if err := g.AddNode(dag.Node{ID: 1, Type: taskname.TypeMap}); err != nil {
		t.Fatal(err)
	}
	vecs, _, err := Features([]*dag.Graph{g}, edgeOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs[0].Keys) == 0 {
		t.Fatal("edge-kernel vector empty for single node")
	}
}

func TestEdgeKernelMassProperty(t *testing.T) {
	// Per iteration: one count per node + one per edge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		h := rng.Intn(3)
		g := randomDAG(rng, "g", n)
		vecs, _, err := Features([]*dag.Graph{g}, edgeOptions(h))
		if err != nil {
			return false
		}
		var mass float64
		for _, c := range vecs[0].Vals {
			mass += c
		}
		return mass == float64((h+1)*(n+g.NumEdges()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
