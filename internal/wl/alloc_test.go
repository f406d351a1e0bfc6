package wl

import (
	"math/rand"
	"testing"

	"jobgraph/internal/dag"
)

// TestEmbedIntoZeroAlloc pins the core refinement guarantee: once an
// embedder has seen a graph's label universe, re-embedding into a
// reused vector performs no heap allocations at all — every round runs
// over reused code arrays, the shared composition buffer, reused BFS
// scratch, the occurrence list and no-alloc map lookups — for every
// base kernel and every label space.
func TestEmbedIntoZeroAlloc(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), "alloc", 40)
	bases := []BaseKernel{BaseSubtree, BaseEdge, BaseShortestPath}

	// warmAllocs embeds g once to warm e, then reports the allocations
	// of a re-embed.
	warmAllocs := func(e *embedder, opt Options) float64 {
		var vec CompactVector
		e.embedInto(&vec, g, opt)
		return testing.AllocsPerRun(100, func() {
			e.embedInto(&vec, g, opt)
		})
	}
	frozenFrom := func(t *testing.T, src *dag.Graph, opt Options) *Frozen {
		d := NewDictionary()
		if _, err := d.Embed(src, opt); err != nil {
			t.Fatal(err)
		}
		return d.Freeze()
	}

	t.Run("dictionary", func(t *testing.T) {
		for _, base := range bases {
			opt := DefaultOptions()
			opt.Base = base
			if allocs := warmAllocs(newEmbedder(NewDictionary(), nil, 0), opt); allocs != 0 {
				t.Errorf("%s: warm dictionary embedInto allocates %.1f objects/run, want 0", base, allocs)
			}
		}
	})

	t.Run("frozen", func(t *testing.T) {
		for _, base := range bases {
			opt := DefaultOptions()
			opt.Base = base
			if allocs := warmAllocs(newEmbedder(nil, frozenFrom(t, g, opt), 0), opt); allocs != 0 {
				t.Errorf("%s: warm frozen embedInto allocates %.1f objects/run, want 0", base, allocs)
			}
		}
	})

	t.Run("frozen-unseen-labels", func(t *testing.T) {
		// Serve-time worst case: the frozen label space was built from a
		// different graph, so refinement keeps hitting frozen-miss hashed
		// labels. After the first pass caches them, re-embedding is still
		// allocation-free.
		for _, base := range bases {
			opt := DefaultOptions()
			opt.Base = base
			fz := frozenFrom(t, chainGraph(t, "other", 4), opt)
			if allocs := warmAllocs(newEmbedder(nil, fz, 0), opt); allocs != 0 {
				t.Errorf("%s: warm frozen-miss embedInto allocates %.1f objects/run, want 0", base, allocs)
			}
		}
	})
}

// TestHashedEmbedWarmAllocs pins the hashed-feature fast path: the
// embedder's scratch is reused across graphs, so a warm re-embed
// allocates only the result vector's two arrays, nothing per node or
// per round.
func TestHashedEmbedWarmAllocs(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(5)), "hashed-alloc", 40)
	opt := DefaultOptions()
	e := newEmbedder(nil, nil, 64)
	e.embed(g, opt) // warm the token caches
	allocs := testing.AllocsPerRun(100, func() {
		vec := e.embed(g, opt)
		if len(vec.Keys) == 0 {
			t.Fatal("empty hashed vector")
		}
	})
	if allocs > 2 {
		t.Fatalf("warm hashed embed allocates %.1f objects/run, want <= 2 (Keys and Vals only)", allocs)
	}
}
