// ANNIndex: sublinear top-k similarity over millions of job DAGs.
//
// Scoring every indexed vector costs O(n) per query, O(n²) for a kernel
// matrix — which is why the paper samples 100 jobs. ANNIndex breaks
// that ceiling with the standard sketch-and-hash construction: each job
// is embedded as a hashed WL feature vector (HashedFeatures, no shared
// dictionary), sketched into a MinHash signature (sketch.go), and
// inserted into banded LSH tables. A query probes one LSH bucket per
// band, unions the posting lists into a candidate set whose size tracks
// the corpus's local density rather than n, and re-ranks the candidates
// by exact cosine over the stored sparse vectors. Recall against the
// exact kernel is tunable through SketchOptions (more bands, shorter
// rows → more candidates → higher recall) and measured by the
// accuracy-vs-speed gate in CI.
//
// The index is immutable-after-Build in spirit: Add appends, the first
// Query (or an explicit Build) freezes the LSH tables into sorted
// arrays — compact, cache-friendly, and binary-searchable — and later
// Adds invalidate them for rebuild. All query paths are safe for
// concurrent use once built (the daemon hot-swaps whole indexes, never
// mutates a live one).
package wl

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"jobgraph/internal/dag"
	"jobgraph/internal/obs"
)

// ANN workload instruments. Candidate-set size and re-rank latency are
// windowed (last-minute) so a serving process exposes current behaviour
// on /metrics, not a lifetime average.
var (
	obsANNQueries    = obs.Default().Counter("wl.ann.queries")
	obsANNIndexed    = obs.Default().Gauge("wl.ann.indexed_jobs")
	obsANNCandidates = obs.Default().WindowHistogram("wl.ann.candidates", obs.DefaultWindow)
	obsANNRerankMs   = obs.Default().WindowHistogram("wl.ann.rerank_ms", obs.DefaultWindow)
)

// ANNIndexSchema identifies the serialized index layout; bump on
// breaking changes so loaders refuse stale files instead of
// mis-ranking.
const ANNIndexSchema = "jobgraph-annindex/v1"

// Hit is one nearest-neighbour result.
type Hit struct {
	JobID      string
	Similarity float64
}

// ANNIndex is the persistent approximate-nearest-neighbour structure:
// MinHash signatures in banded LSH tables plus the hashed sparse
// vectors for the exact-cosine re-rank.
type ANNIndex struct {
	wlOpts Options
	opt    SketchOptions
	seeds  []uint64

	jobIDs []string
	byID   map[string]int32

	// Job i's vector is (keys[i], vals[i]), the CompactVector layout
	// with float32 counts: float32 loses nothing on WL label counts
	// (integral, far below 2^24) and halves the re-rank working set.
	keys    [][]int32
	vals    [][]float32
	selfDot []float64
	sigs    []Sketch

	// LSH tables, one per band: (bandKeys[b], bandIDs[b]) sorted by
	// key, ids ascending within equal keys. Valid only while built.
	built    bool
	bandKeys [][]uint64
	bandIDs  [][]int32
}

// NewANNIndex returns an empty index. wlOpts are the embedding options
// queries are hashed under (subtree base only, matching HashedFeatures)
// and opt the sketch/LSH geometry.
func NewANNIndex(wlOpts Options, opt SketchOptions) (*ANNIndex, error) {
	if err := wlOpts.validate(); err != nil {
		return nil, err
	}
	if wlOpts.Base != BaseSubtree {
		return nil, fmt.Errorf("wl: ann index supports the subtree base only, got %s", wlOpts.Base)
	}
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return &ANNIndex{
		wlOpts: wlOpts,
		opt:    opt,
		seeds:  hashSeeds(opt),
		byID:   make(map[string]int32),
	}, nil
}

// NewANNIndexFromSketches bulk-loads an index from presketched jobs —
// the engine's wl.annindex stage path, where vectors and signatures are
// separately cached artifacts. Signatures must have been produced by
// Sketches under the same opt.
func NewANNIndexFromSketches(wlOpts Options, opt SketchOptions, jobIDs []string, vectors []CompactVector, sigs []Sketch) (*ANNIndex, error) {
	ix, err := NewANNIndex(wlOpts, opt)
	if err != nil {
		return nil, err
	}
	if len(jobIDs) != len(vectors) || len(jobIDs) != len(sigs) {
		return nil, fmt.Errorf("wl: ann bulk load: %d jobs, %d vectors, %d sketches",
			len(jobIDs), len(vectors), len(sigs))
	}
	for i := range jobIDs {
		if len(sigs[i]) != ix.opt.Hashes {
			return nil, fmt.Errorf("wl: ann bulk load: sketch %d has width %d, want %d",
				i, len(sigs[i]), ix.opt.Hashes)
		}
		if err := ix.add(jobIDs[i], vectors[i], sigs[i]); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Options returns the sketch/LSH geometry the index was built under.
func (ix *ANNIndex) Options() SketchOptions { return ix.opt }

// WLOptions returns the embedding options queries must hash under.
func (ix *ANNIndex) WLOptions() Options { return ix.wlOpts }

// Len returns the number of indexed jobs.
func (ix *ANNIndex) Len() int { return len(ix.jobIDs) }

// JobIDs returns the indexed job ids in insertion order (shared slice;
// do not mutate).
func (ix *ANNIndex) JobIDs() []string { return ix.jobIDs }

// Add sketches and inserts one job's hashed feature vector. The index
// shares v.Keys, so the caller must not modify it afterwards. Duplicate
// job ids are rejected: an index is a registry, not a multiset.
func (ix *ANNIndex) Add(jobID string, v CompactVector) error {
	return ix.add(jobID, v, sketchWithSeeds(v, ix.seeds))
}

// AddGraph embeds a graph with the index's hashed WL options and adds
// the result under the graph's JobID.
func (ix *ANNIndex) AddGraph(g *dag.Graph) error {
	return ix.Add(g.JobID, hashedEmbed(g, ix.wlOpts, ix.opt.Buckets))
}

func (ix *ANNIndex) add(jobID string, v CompactVector, sig Sketch) error {
	if _, dup := ix.byID[jobID]; dup {
		return fmt.Errorf("wl: job %s already indexed", jobID)
	}
	vs := make([]float32, len(v.Vals))
	for i, c := range v.Vals {
		vs[i] = float32(c)
	}
	ix.byID[jobID] = int32(len(ix.jobIDs))
	ix.jobIDs = append(ix.jobIDs, jobID)
	ix.keys = append(ix.keys, v.Keys)
	ix.vals = append(ix.vals, vs)
	ix.selfDot = append(ix.selfDot, v.SelfDot())
	ix.sigs = append(ix.sigs, sig)
	ix.built = false
	return nil
}

// Build freezes the LSH tables: one sorted (bandKey, id) array pair per
// band. Idempotent; Query calls it lazily on an unbuilt index. Sorted
// arrays instead of hash maps keep a million-job index's table overhead
// at 12 bytes per job per band and make posting-list lookup two binary
// searches.
func (ix *ANNIndex) Build() {
	if ix.built {
		return
	}
	n := len(ix.jobIDs)
	rows := ix.opt.rows()
	ix.bandKeys = make([][]uint64, ix.opt.Bands)
	ix.bandIDs = make([][]int32, ix.opt.Bands)
	for b := 0; b < ix.opt.Bands; b++ {
		bk := make([]uint64, n)
		ids := make([]int32, n)
		for i := 0; i < n; i++ {
			bk[i] = bandKey(ix.sigs[i], b, rows)
			ids[i] = int32(i)
		}
		sort.Sort(&bandTable{keys: bk, ids: ids})
		ix.bandKeys[b] = bk
		ix.bandIDs[b] = ids
	}
	ix.built = true
	obsANNIndexed.Set(int64(n))
}

// bandTable sorts a band's (key, id) pairs by key then id, so posting
// lists come out in deterministic ascending-id order.
type bandTable struct {
	keys []uint64
	ids  []int32
}

func (t *bandTable) Len() int { return len(t.keys) }
func (t *bandTable) Less(a, b int) bool {
	if t.keys[a] != t.keys[b] {
		return t.keys[a] < t.keys[b]
	}
	return t.ids[a] < t.ids[b]
}
func (t *bandTable) Swap(a, b int) {
	t.keys[a], t.keys[b] = t.keys[b], t.keys[a]
	t.ids[a], t.ids[b] = t.ids[b], t.ids[a]
}

// candidates unions the posting lists the query signature hits, one
// LSH bucket per band, returning ascending unique indexes. exclude
// drops one index (the query job itself on QueryJob; -1 keeps all).
func (ix *ANNIndex) candidates(sig Sketch, exclude int32) []int32 {
	rows := ix.opt.rows()
	var out []int32
	seen := make(map[int32]struct{}, 64)
	for b := 0; b < ix.opt.Bands; b++ {
		key := bandKey(sig, b, rows)
		bk := ix.bandKeys[b]
		lo := sort.Search(len(bk), func(i int) bool { return bk[i] >= key })
		for i := lo; i < len(bk) && bk[i] == key; i++ {
			id := ix.bandIDs[b][i]
			if id == exclude {
				continue
			}
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Candidates returns the job ids the LSH tables propose for a query
// vector, before any re-ranking — the recall ceiling of a query. The
// exact-subset property test pins that at high band settings this set
// contains every sufficiently similar exact neighbour.
func (ix *ANNIndex) Candidates(v CompactVector) []string {
	ix.Build()
	cands := ix.candidates(sketchWithSeeds(v, ix.seeds), -1)
	out := make([]string, len(cands))
	for i, id := range cands {
		out[i] = ix.jobIDs[id]
	}
	return out
}

// CandidateNeighbors returns, for every indexed job, the indexes of its
// LSH candidates (its neighbourhood in the candidate graph), excluding
// itself, capped at maxPerJob (<=0: uncapped, ascending-id order). This
// is the adjacency the sketch-space k-medoids consumes in place of a
// dense distance matrix.
func (ix *ANNIndex) CandidateNeighbors(maxPerJob int) [][]int32 {
	ix.Build()
	out := make([][]int32, len(ix.jobIDs))
	for i := range ix.jobIDs {
		nbr := ix.candidates(ix.sigs[i], int32(i))
		if maxPerJob > 0 && len(nbr) > maxPerJob {
			nbr = nbr[:maxPerJob]
		}
		out[i] = nbr
	}
	return out
}

// dot is ⟨q, indexed job i⟩ — a merge join over two sorted key arrays.
func (ix *ANNIndex) dot(q CompactVector, i int) float64 {
	ik, iv := ix.keys[i], ix.vals[i]
	var s float64
	a, b := 0, 0
	for a < len(q.Keys) && b < len(ik) {
		switch {
		case q.Keys[a] == ik[b]:
			s += q.Vals[a] * float64(iv[b])
			a++
			b++
		case q.Keys[a] < ik[b]:
			a++
		default:
			b++
		}
	}
	return s
}

// Query returns the k most cosine-similar indexed jobs to the hashed
// feature vector v among the LSH candidates, descending by similarity
// (ties by job id). Fewer than k results means the candidate set was
// smaller than k — the approximate regime's honest answer, not an
// error. k must be positive.
func (ix *ANNIndex) Query(v CompactVector, k int) ([]Hit, error) {
	if k <= 0 {
		return nil, fmt.Errorf("wl: query k=%d", k)
	}
	ix.Build()
	sig := sketchWithSeeds(v, ix.seeds)
	return ix.rerank(v, v.SelfDot(), ix.candidates(sig, -1), k), nil
}

// QueryGraph embeds g with the index's hashed WL options and queries.
func (ix *ANNIndex) QueryGraph(g *dag.Graph, k int) ([]Hit, error) {
	return ix.Query(hashedEmbed(g, ix.wlOpts, ix.opt.Buckets), k)
}

// QueryJob queries by an already-indexed job's id, excluding the job
// itself from the results — the serving plane's "jobs like this one".
func (ix *ANNIndex) QueryJob(jobID string, k int) ([]Hit, error) {
	if k <= 0 {
		return nil, fmt.Errorf("wl: query k=%d", k)
	}
	i, ok := ix.byID[jobID]
	if !ok {
		return nil, fmt.Errorf("wl: job %s not indexed", jobID)
	}
	ix.Build()
	q := CompactVector{Keys: ix.keys[i], Vals: make([]float64, len(ix.vals[i]))}
	for j, c := range ix.vals[i] {
		q.Vals[j] = float64(c)
	}
	return ix.rerank(q, ix.selfDot[i], ix.candidates(ix.sigs[i], i), k), nil
}

// rerank scores candidates by exact cosine over the stored vectors and
// returns the top k. Candidate-set size and re-rank wall time feed the
// windowed ANN instruments.
func (ix *ANNIndex) rerank(q CompactVector, qSelf float64, cands []int32, k int) []Hit {
	start := time.Now()
	hits := make([]Hit, 0, len(cands))
	for _, id := range cands {
		i := int(id)
		sim := normalizeKernel(ix.dot(q, i), qSelf, ix.selfDot[i])
		hits = append(hits, Hit{JobID: ix.jobIDs[i], Similarity: sim})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Similarity != hits[b].Similarity {
			return hits[a].Similarity > hits[b].Similarity
		}
		return hits[a].JobID < hits[b].JobID
	})
	if k > len(hits) {
		k = len(hits)
	}
	hits = hits[:k]
	obsANNQueries.Add(1)
	obsANNCandidates.Observe(float64(len(cands)))
	obsANNRerankMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return hits
}

// annWire is the serialized form shared by the gob and JSON codecs.
// LSH tables are not serialized: they rebuild deterministically from
// the signatures, and posting lists would dominate the file.
type annWire struct {
	Schema  string        `json:"schema"`
	WL      Options       `json:"wl"`
	Sketch  SketchOptions `json:"sketch"`
	Jobs    []string      `json:"jobs"`
	Keys    [][]int32     `json:"keys"`
	Vals    [][]float32   `json:"vals"`
	Sigs    []Sketch      `json:"sigs"`
	Version int           `json:"version"`
}

func (ix *ANNIndex) wire() annWire {
	return annWire{
		Schema: ANNIndexSchema,
		WL:     ix.wlOpts,
		Sketch: ix.opt,
		Jobs:   ix.jobIDs,
		Keys:   ix.keys,
		Vals:   ix.vals,
		Sigs:   ix.sigs,
	}
}

// fromWire validates and reconstitutes an index from its wire form.
func fromWire(w annWire) (*ANNIndex, error) {
	if w.Schema != ANNIndexSchema {
		return nil, fmt.Errorf("wl: ann index has schema %q, want %q", w.Schema, ANNIndexSchema)
	}
	ix, err := NewANNIndex(w.WL, w.Sketch)
	if err != nil {
		return nil, err
	}
	if len(w.Jobs) != len(w.Keys) || len(w.Jobs) != len(w.Vals) || len(w.Jobs) != len(w.Sigs) {
		return nil, fmt.Errorf("wl: ann index wire arrays disagree: %d jobs, %d keys, %d vals, %d sigs",
			len(w.Jobs), len(w.Keys), len(w.Vals), len(w.Sigs))
	}
	for i := range w.Jobs {
		if _, dup := ix.byID[w.Jobs[i]]; dup {
			return nil, fmt.Errorf("wl: ann index wire: duplicate job %s", w.Jobs[i])
		}
		if len(w.Keys[i]) != len(w.Vals[i]) {
			return nil, fmt.Errorf("wl: ann index wire: vector %d has %d keys, %d vals",
				i, len(w.Keys[i]), len(w.Vals[i]))
		}
		if len(w.Sigs[i]) != ix.opt.Hashes {
			return nil, fmt.Errorf("wl: ann index wire: sketch %d has width %d, want %d",
				i, len(w.Sigs[i]), ix.opt.Hashes)
		}
		var self float64
		for j, k := range w.Keys[i] {
			if j > 0 && w.Keys[i][j-1] >= k {
				return nil, fmt.Errorf("wl: ann index wire: vector %d keys not ascending", i)
			}
			c := float64(w.Vals[i][j])
			// NaN passes a plain c < 0 test and would poison every
			// similarity score the vector takes part in.
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("wl: ann index wire: count %v in vector %d is not finite and non-negative", c, i)
			}
			self += c * c
		}
		ix.byID[w.Jobs[i]] = int32(i)
		ix.selfDot = append(ix.selfDot, self)
	}
	ix.jobIDs = w.Jobs
	ix.keys = w.Keys
	ix.vals = w.Vals
	ix.sigs = w.Sigs
	return ix, nil
}

// annHeader precedes the gob payload so a truncated or alien file fails
// fast with a named error instead of a gob decode panic.
var annHeader = []byte(ANNIndexSchema + "\n")

// Save writes the index in its binary (gob) form, preceded by the
// schema header.
func (ix *ANNIndex) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(annHeader); err != nil {
		return fmt.Errorf("wl: save ann index: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(ix.wire()); err != nil {
		return fmt.Errorf("wl: save ann index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wl: save ann index: %w", err)
	}
	return nil
}

// LoadANNIndex reads an index written by Save.
func LoadANNIndex(r io.Reader) (*ANNIndex, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(annHeader))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("wl: load ann index: %w", err)
	}
	if !bytes.Equal(head, annHeader) {
		return nil, fmt.Errorf("wl: not a %s file", ANNIndexSchema)
	}
	var w annWire
	if err := gob.NewDecoder(br).Decode(&w); err != nil {
		return nil, fmt.Errorf("wl: load ann index: %w", err)
	}
	return fromWire(w)
}

// SaveJSON writes the index as JSON — the interoperable form (and the
// engine's inspectable artifact codec).
func (ix *ANNIndex) SaveJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(ix.wire()); err != nil {
		return fmt.Errorf("wl: save ann index json: %w", err)
	}
	return nil
}

// LoadANNIndexJSON reads an index written by SaveJSON.
func LoadANNIndexJSON(r io.Reader) (*ANNIndex, error) {
	var w annWire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("wl: load ann index json: %w", err)
	}
	return fromWire(w)
}

// GobEncode implements gob.GobEncoder so index-bearing engine artifacts
// cache under the standard gob codec.
func (ix *ANNIndex) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ix.wire()); err != nil {
		return nil, fmt.Errorf("wl: encoding ann index: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder; the receiver is reset.
func (ix *ANNIndex) GobDecode(data []byte) error {
	var w annWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("wl: decoding ann index: %w", err)
	}
	nx, err := fromWire(w)
	if err != nil {
		return err
	}
	*ix = *nx
	return nil
}
