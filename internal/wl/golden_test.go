package wl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
)

// goldenCorpus is the fixed graph corpus the golden digests are pinned
// on: random DAGs of assorted sizes plus the degenerate shapes (chain,
// triangle, single node, empty graph).
func goldenCorpus(t testing.TB, seed int64) []*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var graphs []*dag.Graph
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randomDAG(rng, fmt.Sprintf("r%d", i), 2+rng.Intn(14)))
	}
	one := dag.New("one")
	if err := one.AddNode(dag.Node{ID: 1, Type: taskname.TypeJoin}); err != nil {
		t.Fatal(err)
	}
	return append(graphs,
		chainGraph(t, "chain", 5),
		triangleGraph(t, "tri", 3),
		one,
		dag.New("empty"))
}

// hashVectors feeds every vector's (key, count) pairs, in key order,
// into h; a vector boundary is marked so split points matter.
func hashVectors(h hash.Hash, vecs []CompactVector) {
	var b [8]byte
	for _, v := range vecs {
		for i, k := range v.Keys {
			binary.LittleEndian.PutUint64(b[:], uint64(k))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Vals[i]))
			h.Write(b[:])
		}
		h.Write([]byte{'|'})
	}
}

// hashFloats feeds the exact bits of every value into h.
func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func goldenSettings() []Options {
	var out []Options
	for _, h := range []int{0, 1, 3} {
		for _, types := range []bool{true, false} {
			for _, undirected := range []bool{false, true} {
				out = append(out, Options{Iterations: h, UseTypeLabels: types, Undirected: undirected})
			}
		}
	}
	return out
}

func embedAll(t *testing.T, graphs []*dag.Graph, embed func(*dag.Graph) (CompactVector, error)) []CompactVector {
	t.Helper()
	out := make([]CompactVector, len(graphs))
	for i, g := range graphs {
		v, err := embed(g)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// goldenDigests computes one SHA-256 per output family over every
// setting in goldenSettings.
func goldenDigests(t *testing.T) map[string]string {
	corpus := goldenCorpus(t, 21)
	other := goldenCorpus(t, 22)
	sums := map[string]hash.Hash{}
	sum := func(name string) hash.Hash {
		if sums[name] == nil {
			sums[name] = sha256.New()
		}
		return sums[name]
	}
	for _, opt := range goldenSettings() {
		for _, base := range []BaseKernel{BaseSubtree, BaseEdge} {
			o := opt
			o.Base = base
			vecs, d, err := Features(corpus, o)
			if err != nil {
				t.Fatal(err)
			}
			hashVectors(sum(base.String()+"/dictionary"), vecs)

			hit := d.Freeze()
			hashVectors(sum(base.String()+"/frozen-hit"),
				embedAll(t, corpus, func(g *dag.Graph) (CompactVector, error) { return hit.Embed(g, o) }))

			_, od, err := Features(other, o)
			if err != nil {
				t.Fatal(err)
			}
			miss := od.Freeze()
			hashVectors(sum(base.String()+"/frozen-miss"),
				embedAll(t, corpus, func(g *dag.Graph) (CompactVector, error) { return miss.Embed(g, o) }))
		}
		for _, buckets := range []int{64, 1 << 20} {
			vecs, err := HashedFeatures(corpus, opt, buckets, 1)
			if err != nil {
				t.Fatal(err)
			}
			hashVectors(sum(fmt.Sprintf("hashed/%d", buckets)), vecs)
		}

		// Shortest-path ids were assigned in map order before the
		// refinement core was unified, so only kernel values are pinned.
		sp := opt
		sp.Base = BaseShortestPath
		m, err := KernelMatrix(corpus, sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(sum("shortest-path/kernel-matrix"), m.Dense().Data)

		train, d, err := Features(other, sp)
		if err != nil {
			t.Fatal(err)
		}
		fz := d.Freeze()
		query := embedAll(t, corpus, func(g *dag.Graph) (CompactVector, error) { return fz.Embed(g, sp) })
		sims := make([]float64, 0, len(query)*len(train))
		for _, q := range query {
			for _, tr := range train {
				sims = append(sims, Similarity(q, tr))
			}
		}
		hashFloats(sum("shortest-path/frozen-similarity"), sims)
	}
	out := make(map[string]string, len(sums))
	for name, h := range sums {
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// TestGoldenEmbeddings pins every embedder output family to digests
// recorded before the refinement loops were unified: subtree and edge
// vectors under a dictionary and under frozen views (hits and misses),
// hashed vectors at two bucket counts, and the exact bits of
// shortest-path kernel values. Any change to label formats, interning
// order, hashing or recording order shows up here.
func TestGoldenEmbeddings(t *testing.T) {
	want := map[string]string{
		"edge/dictionary":                 "9be92ce689587bda632495e1e403e3b2acf71fc9670e7bf5a3ee1fc4c8a6bac4",
		"edge/frozen-hit":                 "9be92ce689587bda632495e1e403e3b2acf71fc9670e7bf5a3ee1fc4c8a6bac4",
		"edge/frozen-miss":                "943b523511840eec7ee00935578700342af76729a7e3166f10451e9fa7f3e87b",
		"hashed/1048576":                  "54ba0bfe86cba6c317977d549c220b427d1722ae3ee0a3da4b40256715c25779",
		"hashed/64":                       "2d60946f663e28eb9e1829212a5efbd3666401cce1bf8308141dc25c320892ba",
		"shortest-path/frozen-similarity": "4fcb6d94ee43d82c478ec46b73fc6b11f0faa04745d5d0fb5422878de1092631",
		"shortest-path/kernel-matrix":     "0aba653d4c9db0b289419eb59a9b7edaf75bad20323d6075851bfbd76d262c44",
		"subtree/dictionary":              "54136ed328957a1c068a81e2440d01360871d7cff10cd537b5bca41d36da3b4a",
		"subtree/frozen-hit":              "54136ed328957a1c068a81e2440d01360871d7cff10cd537b5bca41d36da3b4a",
		"subtree/frozen-miss":             "9bc6d760bc46529646576fbad1c29ea8698bec9718fa79341348af82425a6a3f",
	}
	got := goldenDigests(t)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d digest families, want %d", len(got), len(want))
	}
}
