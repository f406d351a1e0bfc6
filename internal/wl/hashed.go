package wl

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"jobgraph/internal/dag"
)

// HashedFeatures embeds every graph using feature hashing instead of a
// shared dictionary: each refined label is FNV-hashed into a bucket in
// [0, buckets). Because no mutable dictionary is shared, graphs embed
// fully in parallel — the scalable path for corpus sizes where the
// sequential dictionary walk dominates. The price is hash collisions,
// which only ever *increase* measured similarity; with buckets well
// above the true label count the distortion is negligible (quantified
// by the exact-vs-hashed agreement test and ablation).
//
// Vectors hashed with the same bucket count are mutually comparable;
// buckets <= 0 selects 1<<20, and buckets above math.MaxInt32 are
// rejected because vector keys are int32. workers <= 0 selects
// GOMAXPROCS. Only the subtree base kernel is supported: the other
// bases exist for the comparison ablations, not the scale path.
func HashedFeatures(graphs []*dag.Graph, opt Options, buckets, workers int) ([]CompactVector, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Base != BaseSubtree {
		return nil, fmt.Errorf("wl: hashed features support the subtree base only, got %s", opt.Base)
	}
	if buckets <= 0 {
		buckets = 1 << 20
	}
	if buckets > math.MaxInt32 {
		return nil, fmt.Errorf("wl: %d hash buckets exceed the int32 key space", buckets)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(graphs) {
		workers = len(graphs)
	}

	out := make([]CompactVector, len(graphs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One embedder per worker: scratch buffers and the token
			// cache amortize across every graph the worker embeds.
			e := newEmbedder(nil, nil, buckets)
			for i := range work {
				// Each index is owned by exactly one worker; no locks.
				out[i] = e.embed(graphs[i], opt)
			}
		}()
	}
	for i := range graphs {
		work <- i
	}
	close(work)
	wg.Wait()
	return out, nil
}

// hashedEmbed computes one graph's hashed WL subtree vector with a
// throwaway embedder — the one-off entry point for callers outside the
// batched HashedFeatures fan-out (e.g. ANNIndex.AddGraph).
func hashedEmbed(g *dag.Graph, opt Options, buckets int) CompactVector {
	return newEmbedder(nil, nil, buckets).embed(g, opt)
}

// CollisionRate estimates the fraction of distinct exact labels that
// share a bucket with another label for the given corpus — a diagnostic
// for picking the bucket count.
func CollisionRate(graphs []*dag.Graph, opt Options, buckets int) (float64, error) {
	if err := opt.validate(); err != nil {
		return 0, err
	}
	if buckets <= 0 {
		buckets = 1 << 20
	}
	// Collect exact labels via a throwaway dictionary walk.
	d := NewDictionary()
	for _, g := range graphs {
		if _, err := d.Embed(g, opt); err != nil {
			return 0, err
		}
	}
	if d.Len() == 0 {
		return 0, nil
	}
	byBucket := make(map[uint64]int, d.Len())
	for l := range d.ids {
		byBucket[fnvSum([]byte(l))%uint64(buckets)]++
	}
	colliding := 0
	for _, c := range byBucket {
		if c > 1 {
			colliding += c
		}
	}
	return float64(colliding) / float64(d.Len()), nil
}
