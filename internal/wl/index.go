package wl

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"jobgraph/internal/dag"
)

// Index is a persistent similarity-search structure over a job corpus:
// the WL label dictionary, the embedding options and one feature vector
// per indexed job. It supports nearest-neighbour queries for new jobs —
// the "predict a new job's behaviour from similar historical jobs" use
// case — and JSON round-tripping so a corpus embedded once can be
// queried by later processes.
type Index struct {
	opts    Options
	dict    *Dictionary
	jobIDs  []string
	byID    map[string]int
	vectors []Vector
	selfDot []float64
}

// NewIndex returns an empty index with the given embedding options.
func NewIndex(opts Options) (*Index, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Index{opts: opts, dict: NewDictionary(), byID: make(map[string]int)}, nil
}

// Add embeds a graph and stores it under its JobID. Duplicate job ids
// are rejected: an index is a registry, not a multiset.
func (ix *Index) Add(g *dag.Graph) error {
	if _, dup := ix.byID[g.JobID]; dup {
		return fmt.Errorf("wl: job %s already indexed", g.JobID)
	}
	v, err := ix.dict.Embed(g, ix.opts)
	if err != nil {
		return err
	}
	ix.byID[g.JobID] = len(ix.jobIDs)
	ix.jobIDs = append(ix.jobIDs, g.JobID)
	ix.vectors = append(ix.vectors, v)
	ix.selfDot = append(ix.selfDot, Dot(v, v))
	return nil
}

// Len returns the number of indexed jobs.
func (ix *Index) Len() int { return len(ix.jobIDs) }

// Hit is one nearest-neighbour result.
type Hit struct {
	JobID      string
	Similarity float64
}

// Query returns the k most similar indexed jobs to g, descending by
// similarity (ties broken by job id for determinism). k exceeding the
// index size returns everything.
func (ix *Index) Query(g *dag.Graph, k int) ([]Hit, error) {
	if k <= 0 {
		return nil, fmt.Errorf("wl: query k=%d", k)
	}
	qv, err := ix.dict.Embed(g, ix.opts)
	if err != nil {
		return nil, err
	}
	qSelf := Dot(qv, qv)
	hits := make([]Hit, len(ix.jobIDs))
	for i := range ix.jobIDs {
		hits[i] = Hit{
			JobID:      ix.jobIDs[i],
			Similarity: similarityWithSelf(qv, ix.vectors[i], qSelf, ix.selfDot[i]),
		}
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
	return hits[:k], nil
}

// indexWire is the JSON form of an Index.
type indexWire struct {
	Options Options              `json:"options"`
	Labels  map[string]int       `json:"labels"`
	Jobs    []string             `json:"jobs"`
	Vectors []map[string]float64 `json:"vectors"` // label-id (as string) -> count
}

// Save serializes the index as JSON.
func (ix *Index) Save(w io.Writer) error {
	wire := indexWire{
		Options: ix.opts,
		Labels:  ix.dict.ids,
		Jobs:    ix.jobIDs,
	}
	for _, v := range ix.vectors {
		m := make(map[string]float64, len(v))
		for k, c := range v {
			m[fmt.Sprintf("%d", k)] = c
		}
		wire.Vectors = append(wire.Vectors, m)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(wire); err != nil {
		return fmt.Errorf("wl: save index: %w", err)
	}
	return nil
}

// LoadIndex reads an index previously written by Save.
func LoadIndex(r io.Reader) (*Index, error) {
	var wire indexWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("wl: load index: %w", err)
	}
	if err := wire.Options.validate(); err != nil {
		return nil, err
	}
	if len(wire.Jobs) != len(wire.Vectors) {
		return nil, fmt.Errorf("wl: index has %d jobs but %d vectors",
			len(wire.Jobs), len(wire.Vectors))
	}
	ix := &Index{opts: wire.Options, dict: &Dictionary{ids: wire.Labels}, byID: make(map[string]int, len(wire.Jobs))}
	if ix.dict.ids == nil {
		ix.dict.ids = make(map[string]int)
	}
	if err := checkIDs(ix.dict.ids); err != nil {
		return nil, err
	}
	for i, m := range wire.Vectors {
		v := make(Vector, len(m))
		for k, c := range m {
			var id int
			if _, err := fmt.Sscanf(k, "%d", &id); err != nil {
				return nil, fmt.Errorf("wl: corrupt vector key %q", k)
			}
			if c < 0 {
				return nil, fmt.Errorf("wl: negative count in vector %d", i)
			}
			v[id] = c
		}
		if _, dup := ix.byID[wire.Jobs[i]]; dup {
			return nil, fmt.Errorf("wl: index file has duplicate job %s", wire.Jobs[i])
		}
		ix.byID[wire.Jobs[i]] = len(ix.jobIDs)
		ix.jobIDs = append(ix.jobIDs, wire.Jobs[i])
		ix.vectors = append(ix.vectors, v)
		ix.selfDot = append(ix.selfDot, Dot(v, v))
	}
	return ix, nil
}
