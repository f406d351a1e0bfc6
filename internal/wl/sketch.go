// MinHash sketches over hashed WL feature vectors: the fixed-cost
// per-job summary the ANN layer (annindex.go) hashes into its LSH
// tables. A sketch depends only on the job's own hashed vector and the
// sketch options — never on the rest of the corpus — so sketching is
// embarrassingly parallel and bit-identical at every worker count,
// which keeps sketch artifacts content-addressable by configuration
// alone.
package wl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// SketchOptions parameterizes MinHash signatures and their banded LSH
// layout. Two sketches are only comparable when produced under equal
// options (same hash family, same width); ANNIndex enforces that.
type SketchOptions struct {
	// Buckets is the hashed-feature space width the sketched vectors
	// live in (HashedFeatures' bucket count). <=0 selects 1<<20; at
	// most math.MaxInt32, the int32 vector key space.
	Buckets int
	// Hashes is the MinHash signature width H. More hashes estimate
	// Jaccard similarity more tightly and cost proportionally more to
	// sketch. <=0 selects 64; at most maxSketchHashes.
	Hashes int
	// Bands divides the signature into Bands groups of Hashes/Bands
	// rows for LSH: two jobs become query candidates when any band of
	// their signatures matches exactly. More bands (shorter rows) catch
	// fainter similarities at the cost of bigger candidate sets; Bands
	// must divide Hashes. <=0 selects 16.
	Bands int
	// Seed derives the hash family. Indexes and queries must share it.
	Seed uint64
}

// DefaultSketchOptions is the configuration the similarity-at-scale
// experiments use: 64 hashes in 16 bands of 4 rows over the default
// 1<<20-bucket hashed feature space.
func DefaultSketchOptions() SketchOptions {
	return SketchOptions{Buckets: 1 << 20, Hashes: 64, Bands: 16, Seed: 0x6a6f6267}
}

// withDefaults resolves zero fields to the defaults.
func (o SketchOptions) withDefaults() SketchOptions {
	d := DefaultSketchOptions()
	if o.Buckets <= 0 {
		o.Buckets = d.Buckets
	}
	if o.Hashes <= 0 {
		o.Hashes = d.Hashes
	}
	if o.Bands <= 0 {
		o.Bands = d.Bands
		if o.Bands > o.Hashes {
			o.Bands = o.Hashes
		}
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// maxSketchHashes bounds the signature width: far above any useful
// width, and low enough that options decoded from a corrupt index file
// cannot size the hash family in gigabytes.
const maxSketchHashes = 1 << 12

// Resolved returns the options with zero fields filled in — the form
// the sketching functions actually run under. Cache fingerprints hash
// this form so a zero-value configuration and an explicitly-spelled
// default share artifacts.
func (o SketchOptions) Resolved() SketchOptions { return o.withDefaults() }

func (o SketchOptions) validate() error {
	if o.Hashes < 1 || o.Hashes > maxSketchHashes {
		return fmt.Errorf("wl: sketch hashes %d out of range [1,%d]", o.Hashes, maxSketchHashes)
	}
	if o.Bands < 1 || o.Bands > o.Hashes {
		return fmt.Errorf("wl: sketch bands %d out of range [1,%d]", o.Bands, o.Hashes)
	}
	if o.Hashes%o.Bands != 0 {
		return fmt.Errorf("wl: sketch bands %d must divide hashes %d", o.Bands, o.Hashes)
	}
	if o.Buckets < 1 || o.Buckets > math.MaxInt32 {
		return fmt.Errorf("wl: sketch buckets %d out of range [1,%d]", o.Buckets, math.MaxInt32)
	}
	return nil
}

// rows is the band height R = H/B.
func (o SketchOptions) rows() int { return o.Hashes / o.Bands }

// Sketch is one job's MinHash signature: Hashes minima of a seeded hash
// family over the job's non-zero feature buckets. An empty vector
// sketches to all-sentinel (math.MaxUint64), which never collides with
// a non-empty sketch in any band.
type Sketch []uint64

// emptySlot marks a signature position with no contributing feature.
const emptySlot = math.MaxUint64

// mix64 is the 64-bit finalizer of MurmurHash3: a cheap, statistically
// strong bijection used to derive the MinHash family.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashSeeds derives the per-position seeds of the MinHash family.
func hashSeeds(opt SketchOptions) []uint64 {
	seeds := make([]uint64, opt.Hashes)
	for i := range seeds {
		// Golden-ratio stepping keeps consecutive seeds decorrelated
		// before the mix even sees them.
		seeds[i] = mix64(opt.Seed + uint64(i+1)*0x9e3779b97f4a7c15)
	}
	return seeds
}

// SketchVector computes the MinHash signature of one hashed feature
// vector. Only the support set (non-zero buckets) participates: MinHash
// estimates the Jaccard similarity of supports, and the cosine re-rank
// over the full vectors restores count sensitivity afterwards.
func SketchVector(v CompactVector, opt SketchOptions) (Sketch, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return sketchWithSeeds(v, hashSeeds(opt)), nil
}

// sketchWithSeeds is SketchVector with the hash family precomputed —
// the bulk path used by Sketches and the index.
func sketchWithSeeds(v CompactVector, seeds []uint64) Sketch {
	sig := make(Sketch, len(seeds))
	for i := range sig {
		sig[i] = emptySlot
	}
	for _, key := range v.Keys {
		k := uint64(uint32(key))
		for i, s := range seeds {
			if h := mix64(k ^ s); h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// Sketches computes MinHash signatures for a batch of vectors across a
// worker pool. Each signature depends only on its own vector, so the
// result is bit-identical at every worker count (pinned by test).
// workers <= 0 selects GOMAXPROCS.
func Sketches(vectors []CompactVector, opt SketchOptions, workers int) ([]Sketch, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	seeds := hashSeeds(opt)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(vectors) {
		workers = len(vectors)
	}
	out := make([]Sketch, len(vectors))
	if len(vectors) == 0 {
		return out, nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Each index is owned by exactly one worker; no locks.
				out[i] = sketchWithSeeds(vectors[i], seeds)
			}
		}()
	}
	for i := range vectors {
		work <- i
	}
	close(work)
	wg.Wait()
	return out, nil
}

// bandKey folds one band of a signature into a single 64-bit LSH key
// (FNV-1a over the band's minima). Two signatures land in the same
// LSH bucket of band b exactly when their band-b rows are all equal,
// up to a 2^-64 fold collision.
func bandKey(sig Sketch, band, rows int) uint64 {
	h := uint64(1469598103934665603)
	for r := band * rows; r < (band+1)*rows; r++ {
		x := sig[r]
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// SketchJaccard estimates the Jaccard similarity of two jobs' feature
// supports from their signatures: the fraction of agreeing positions.
// Signatures must come from the same options/hash family.
func SketchJaccard(a, b Sketch) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("wl: sketch widths differ (%d vs %d)", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("wl: empty sketches")
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a)), nil
}
