// Package wl implements the Weisfeiler–Lehman subtree kernel of
// Shervashidze et al. (JMLR 2011) specialized to job DAGs, the graph
// learning method the paper uses to compare batch-job topologies (§V-D).
//
// For each graph, node labels are iteratively refined: a node's label at
// iteration i+1 is its label at iteration i augmented with the sorted
// multiset of its neighbors' iteration-i labels. The subtree kernel
// between two graphs is the inner product of their label-count vectors
// accumulated over iterations 0..h; normalizing by the self-similarities
// yields the paper's similarity score in [0,1], where 1 means the two
// job graphs are indistinguishable by h rounds of refinement (and in
// practice isomorphic).
package wl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"jobgraph/internal/dag"
	"jobgraph/internal/obs"
)

// Kernel workload tallies. Incremented once per graph/matrix (never
// per node) so the refinement inner loops stay unperturbed.
var (
	obsEmbeds       = obs.Default().Counter("wl.graphs_embedded")
	obsRefineRounds = obs.Default().Counter("wl.refine_rounds")
	obsDictLabels   = obs.Default().Gauge("wl.dict_labels")
	obsVectorSize   = obs.Default().Histogram("wl.vector_size")
)

// Options configures the kernel.
type Options struct {
	// Iterations is the number of refinement rounds h. The label-count
	// vector includes iteration 0 (initial labels) through h.
	// Values 2–4 are standard; the paper-scale experiments use 3.
	Iterations int

	// UseTypeLabels seeds refinement with the task type (M/R/J) so that
	// an all-Map chain and an all-Reduce chain differ. When false all
	// nodes start with a uniform label and only topology matters.
	UseTypeLabels bool

	// Undirected treats dependency edges as undirected during
	// refinement. The default (false) keeps direction: a node's
	// predecessors and successors contribute separate multisets, which
	// distinguishes convergent from divergent shapes — essential for
	// separating the paper's inverted-triangle and trapezium classes.
	Undirected bool

	// Base selects the substructure counted per iteration: the WL
	// subtree kernel (default) or the WL shortest-path kernel.
	Base BaseKernel
}

// DefaultOptions returns the configuration used for the paper-scale
// experiments: h=3, type-seeded, direction-aware.
func DefaultOptions() Options {
	return Options{Iterations: 3, UseTypeLabels: true}
}

func (o Options) validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("wl: negative iterations %d", o.Iterations)
	}
	switch o.Base {
	case BaseSubtree, BaseShortestPath, BaseEdge:
	default:
		return fmt.Errorf("wl: unknown base kernel %d", int(o.Base))
	}
	return nil
}

// Similarity returns the normalized kernel k(a,b)/√(k(a,a)·k(b,b)) in
// [0, 1]. Two empty vectors (empty graphs) are defined as similarity 1;
// an empty vector against a non-empty one is 0.
func Similarity(a, b CompactVector) float64 {
	return normalizeKernel(a.Dot(b), a.SelfDot(), b.SelfDot())
}

// normalizeKernel maps a raw kernel value kab and the two self-kernels
// to the normalized similarity in [0, 1], with Similarity's conventions
// for empty vectors (a zero self-kernel).
func normalizeKernel(kab, ka, kb float64) float64 {
	if ka == 0 || kb == 0 {
		if ka == kb {
			return 1 // two empty graphs coincide
		}
		return 0
	}
	// By Cauchy–Schwarz kab² ≤ ka·kb with equality iff the vectors are
	// parallel; identical graphs must report exactly 1.0 (the paper's
	// Figure 7 relies on exact-1 blocks), so catch equality before the
	// square roots introduce rounding.
	if kab*kab >= ka*kb {
		return 1
	}
	// √(ka)·√(kb) instead of √(ka·kb): label counts can be large enough
	// that the product overflows before the square root tames it.
	s := kab / (math.Sqrt(ka) * math.Sqrt(kb))
	// Clamp tiny float excursions so callers can rely on [0,1].
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// Dictionary compresses refined label strings into dense integer ids so
// feature vectors stay small and dot products stay cheap. A Dictionary
// must be shared by every graph participating in one kernel computation:
// ids are only comparable within a dictionary.
type Dictionary struct {
	ids map[string]int

	// fe is the dictionary's reusable refinement state (see
	// embed_fast.go), created on first Embed. Embed mutates the
	// dictionary, so callers already serialize; reusing one embedder
	// adds no new concurrency constraint.
	fe *embedder
}

// NewDictionary returns an empty label dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]int)}
}

// intern returns a label's id, assigning the next one if it is new.
func (d *Dictionary) intern(label []byte) int {
	if v, ok := d.ids[string(label)]; ok {
		return v
	}
	v := len(d.ids)
	d.ids[string(label)] = v
	return v
}

// Len returns the number of distinct labels interned so far.
func (d *Dictionary) Len() int { return len(d.ids) }

// Frozen is an immutable snapshot of a Dictionary for concurrent
// serving: Embed on a Frozen never mutates shared state, so any number
// of goroutines may classify against one snapshot while another
// goroutine swaps in a replacement. Labels unseen at freeze time
// contribute nothing to the feature vector — exactly the weight they
// would carry against any vector built from the frozen label space.
type Frozen struct {
	ids map[string]int

	// pool recycles embedder scratch across concurrent Embed calls;
	// every pooled embedder is bound to this frozen view, so cached
	// label keys never leak across label spaces.
	pool sync.Pool
}

// Freeze copies the dictionary into an immutable view.
func (d *Dictionary) Freeze() *Frozen {
	ids := make(map[string]int, len(d.ids))
	for k, v := range d.ids {
		ids[k] = v
	}
	return &Frozen{ids: ids}
}

// Len returns the number of labels in the frozen view.
func (f *Frozen) Len() int { return len(f.ids) }

// Embed computes the WL feature vector of g against the frozen label
// space without mutating it. See Dictionary.Embed for semantics.
func (f *Frozen) Embed(g *dag.Graph, opt Options) (CompactVector, error) {
	if err := opt.validate(); err != nil {
		return CompactVector{}, err
	}
	e, _ := f.pool.Get().(*embedder)
	if e == nil {
		e = newEmbedder(nil, f, 0)
	}
	vec := e.embed(g, opt)
	f.pool.Put(e)
	return vec, nil
}

// GobEncode implements gob.GobEncoder so cached analyses and saved
// models retain their kernel state: a restored dictionary embeds new
// graphs with exactly the ids the original interned.
func (d *Dictionary) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d.ids); err != nil {
		return nil, fmt.Errorf("wl: encoding dictionary: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder; the receiver is reset.
func (d *Dictionary) GobDecode(data []byte) error {
	ids := make(map[string]int)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ids); err != nil {
		return fmt.Errorf("wl: decoding dictionary: %w", err)
	}
	if err := checkIDs(ids); err != nil {
		return err
	}
	d.ids = ids
	// Any embedder cached keys against the previous label space.
	d.fe = nil
	return nil
}

// checkIDs requires a dictionary's ids to be exactly 0..len-1, each
// once: anything else would make interning collide, and a negative or
// huge id would index (or grow) the embedder's token tables.
func checkIDs(ids map[string]int) error {
	seen := make([]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(ids) || seen[id] {
			return fmt.Errorf("wl: corrupt dictionary id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Embed computes the WL feature vector of g against the dictionary,
// interning any new labels. Embedding is deterministic given the
// dictionary state, and embedding the same graph twice yields the same
// vector.
func (d *Dictionary) Embed(g *dag.Graph, opt Options) (CompactVector, error) {
	if err := opt.validate(); err != nil {
		return CompactVector{}, err
	}
	if d.fe == nil {
		d.fe = newEmbedder(d, nil, 0)
	}
	return d.fe.embed(g, opt), nil
}

// Features embeds every graph with one shared dictionary and returns the
// vectors in input order.
func Features(graphs []*dag.Graph, opt Options) ([]CompactVector, *Dictionary, error) {
	d := NewDictionary()
	out := make([]CompactVector, len(graphs))
	for i, g := range graphs {
		v, err := d.Embed(g, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("wl: graph %d (%s): %w", i, g.JobID, err)
		}
		out[i] = v
	}
	return out, d, nil
}

// GraphSimilarity is a convenience for one-off pairs: it embeds both
// graphs in a fresh dictionary and returns their normalized similarity.
func GraphSimilarity(a, b *dag.Graph, opt Options) (float64, error) {
	vecs, _, err := Features([]*dag.Graph{a, b}, opt)
	if err != nil {
		return 0, err
	}
	return Similarity(vecs[0], vecs[1]), nil
}
