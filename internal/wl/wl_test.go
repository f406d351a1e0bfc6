package wl

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
)

// fromMap builds the compact vector with m's non-zero entries.
func fromMap(m map[int]float64) CompactVector {
	var v CompactVector
	for k, c := range m {
		if c != 0 {
			v.Keys = append(v.Keys, int32(k))
		}
	}
	slices.Sort(v.Keys)
	for _, k := range v.Keys {
		v.Vals = append(v.Vals, m[int(k)])
	}
	return v
}

// vecEqual reports whether two vectors have the same entries.
func vecEqual(a, b CompactVector) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals)
}

// chainGraph builds M1 -> R2 -> ... -> Rn.
func chainGraph(t testing.TB, id string, n int) *dag.Graph {
	t.Helper()
	g := dag.New(id)
	for i := 1; i <= n; i++ {
		typ := taskname.TypeReduce
		if i == 1 {
			typ = taskname.TypeMap
		}
		if err := g.AddNode(dag.Node{ID: dag.NodeID(i), Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(dag.NodeID(i), dag.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// triangleGraph builds k maps feeding one reduce.
func triangleGraph(t testing.TB, id string, k int) *dag.Graph {
	t.Helper()
	g := dag.New(id)
	sink := dag.NodeID(k + 1)
	if err := g.AddNode(dag.Node{ID: sink, Type: taskname.TypeReduce}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= k; i++ {
		if err := g.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(dag.NodeID(i), sink); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func randomDAG(rng *rand.Rand, id string, n int) *dag.Graph {
	g := dag.New(id)
	types := []taskname.Type{taskname.TypeMap, taskname.TypeReduce, taskname.TypeJoin}
	for i := 1; i <= n; i++ {
		_ = g.AddNode(dag.Node{ID: dag.NodeID(i), Type: types[rng.Intn(3)]})
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if rng.Float64() < 0.3 {
				_ = g.AddEdge(dag.NodeID(i), dag.NodeID(j))
			}
		}
	}
	return g
}

func TestSelfSimilarityIsOne(t *testing.T) {
	g := chainGraph(t, "a", 5)
	s, err := GraphSimilarity(g, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self similarity = %g, want 1", s)
	}
}

func TestIsomorphicGraphsSimilarityOne(t *testing.T) {
	// Same structure, different vertex ids.
	a := dag.New("a")
	b := dag.New("b")
	for _, id := range []dag.NodeID{1, 2, 3} {
		if err := a.AddNode(dag.Node{ID: id, Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []dag.NodeID{7, 8, 9} {
		if err := b.AddNode(dag.Node{ID: id, Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(9, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(8, 7); err != nil {
		t.Fatal(err)
	}
	s, err := GraphSimilarity(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("isomorphic similarity = %g, want 1", s)
	}
}

func TestDifferentShapesLessSimilar(t *testing.T) {
	chain := chainGraph(t, "c", 4)
	tri := triangleGraph(t, "t", 3)
	s, err := GraphSimilarity(chain, tri, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 {
		t.Fatalf("chain vs triangle = %g, want < 1", s)
	}
	// Two chains differing in length should still be more alike than a
	// chain and a triangle (shared subtree patterns).
	c5 := chainGraph(t, "c5", 5)
	sc, _ := GraphSimilarity(chain, c5, DefaultOptions())
	if sc <= s {
		t.Fatalf("chain4-chain5 (%g) should exceed chain-triangle (%g)", sc, s)
	}
}

func TestDirectionMatters(t *testing.T) {
	// Convergent (2 maps -> 1 reduce) vs divergent (1 map -> 2 reduces):
	// direction-aware WL must separate them even with uniform labels.
	conv := dag.New("conv")
	div := dag.New("div")
	for i := 1; i <= 3; i++ {
		if err := conv.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
		if err := div.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conv.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := conv.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := div.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := div.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	opt := Options{Iterations: 2, UseTypeLabels: false}
	s, err := GraphSimilarity(conv, div, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 {
		t.Fatalf("directed WL failed to separate convergent/divergent: %g", s)
	}
	// Undirected WL cannot tell them apart: the shapes are identical as
	// undirected trees with uniform labels.
	opt.Undirected = true
	s, err = GraphSimilarity(conv, div, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("undirected WL should conflate the star shapes: %g", s)
	}
}

func TestTypeLabelsMatter(t *testing.T) {
	allMap := dag.New("m")
	allReduce := dag.New("r")
	for i := 1; i <= 3; i++ {
		if err := allMap.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeMap}); err != nil {
			t.Fatal(err)
		}
		if err := allReduce.AddNode(dag.Node{ID: dag.NodeID(i), Type: taskname.TypeReduce}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 3; i++ {
		if err := allMap.AddEdge(dag.NodeID(i), dag.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := allReduce.AddEdge(dag.NodeID(i), dag.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	withTypes, err := GraphSimilarity(allMap, allReduce, Options{Iterations: 2, UseTypeLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if withTypes != 0 {
		t.Fatalf("type-seeded similarity of disjoint-label chains = %g, want 0", withTypes)
	}
	without, err := GraphSimilarity(allMap, allReduce, Options{Iterations: 2, UseTypeLabels: false})
	if err != nil {
		t.Fatal(err)
	}
	if without != 1 {
		t.Fatalf("unlabeled similarity of same-shape chains = %g, want 1", without)
	}
}

func TestEmptyGraphConventions(t *testing.T) {
	e1, e2 := dag.New("e1"), dag.New("e2")
	s, err := GraphSimilarity(e1, e2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("empty-empty = %g, want 1", s)
	}
	s, err = GraphSimilarity(e1, chainGraph(t, "c", 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("empty-chain = %g, want 0", s)
	}
}

func TestNegativeIterationsRejected(t *testing.T) {
	_, err := GraphSimilarity(dag.New("a"), dag.New("b"), Options{Iterations: -1})
	if err == nil {
		t.Fatal("negative iterations accepted")
	}
}

func TestZeroIterationsCountsLabelsOnly(t *testing.T) {
	// h=0: vectors are just type histograms; chain and triangle with the
	// same type multiset are identical.
	chain := chainGraph(t, "c", 3)     // M,R,R
	tri := triangleGraph(t, "t", 1)    // M,R — different multiset
	mixed := triangleGraph(t, "t2", 2) // M,M,R
	_ = tri
	opt := Options{Iterations: 0, UseTypeLabels: true}
	s, err := GraphSimilarity(chain, mixed, opt)
	if err != nil {
		t.Fatal(err)
	}
	// M,R,R vs M,M,R: cos = (1·2 + 2·1)/√5·√5 = 4/5.
	if math.Abs(s-0.8) > 1e-12 {
		t.Fatalf("h=0 similarity = %g, want 0.8", s)
	}
}

func TestVectorTotalMassProperty(t *testing.T) {
	// The feature vector counts each node once per recorded iteration:
	// Σ counts == n·(h+1).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		h := rng.Intn(5)
		g := randomDAG(rng, "g", n)
		vecs, _, err := Features([]*dag.Graph{g}, Options{Iterations: h, UseTypeLabels: true})
		if err != nil {
			return false
		}
		var mass float64
		for _, c := range vecs[0].Vals {
			mass += c
		}
		return mass == float64(n*(h+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilaritySymmetricBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDAG(rng, "a", 1+rng.Intn(12))
		b := randomDAG(rng, "b", 1+rng.Intn(12))
		opt := Options{Iterations: 1 + rng.Intn(3), UseTypeLabels: rng.Intn(2) == 0}
		s1, err1 := GraphSimilarity(a, b, opt)
		s2, err2 := GraphSimilarity(b, a, opt)
		if err1 != nil || err2 != nil {
			return false
		}
		return s1 >= 0 && s1 <= 1 && math.Abs(s1-s2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEmbedDeterministic requires every base kernel to embed a graph
// identically into two fresh dictionaries (ids follow the walk order,
// never map order) and identically again into the same dictionary.
func TestEmbedDeterministic(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), "r", 12)
	for _, base := range []BaseKernel{BaseSubtree, BaseEdge, BaseShortestPath} {
		t.Run(base.String(), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Base = base
			d := NewDictionary()
			v1, err := d.Embed(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			again, err := d.Embed(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewDictionary().Embed(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, v2 := range map[string]CompactVector{"same dictionary": again, "fresh dictionary": fresh} {
				if !vecEqual(v1, v2) {
					t.Fatalf("%s: vectors differ: %v vs %v", name, v1, v2)
				}
			}
		})
	}
}

func TestDictionaryGrowth(t *testing.T) {
	d := NewDictionary()
	if d.Len() != 0 {
		t.Fatal("fresh dictionary not empty")
	}
	if _, err := d.Embed(chainGraph(t, "c", 4), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	n := d.Len()
	if n == 0 {
		t.Fatal("dictionary did not intern labels")
	}
	// Re-embedding the same graph must not add labels.
	if _, err := d.Embed(chainGraph(t, "c2", 4), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if d.Len() != n {
		t.Fatalf("re-embedding grew dictionary %d -> %d", n, d.Len())
	}
}

func TestDotOrderIndependent(t *testing.T) {
	a := CompactVector{Keys: []int32{1, 2}, Vals: []float64{2, 3}}
	b := CompactVector{Keys: []int32{2, 9}, Vals: []float64{5, 1}}
	if a.Dot(b) != 15 || b.Dot(a) != 15 {
		t.Fatalf("dot = %g / %g", a.Dot(b), b.Dot(a))
	}
}
