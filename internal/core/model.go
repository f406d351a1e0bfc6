// Classification model extraction: the serving-plane artifact distilled
// from a full Analysis. Where an Analysis is the batch pipeline's rich
// output, a Model is the minimum state a long-lived daemon needs to
// classify a never-before-seen job DAG into the learned groups A–E: the
// WL dictionary (so new graphs embed into the same feature space), the
// kernel options, and one centroid vector per group.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"jobgraph/internal/dag"
	"jobgraph/internal/wl"
)

// ModelSchema identifies the serialized model layout; bump on breaking
// changes so a daemon refuses a stale file instead of misclassifying.
const ModelSchema = "jobgraph-model/v1"

// ModelGroup is one learned group's serving-time state: the label-count
// centroid in WL feature space plus the profile facts a scheduler acts
// on (expected demand for a job of this group).
type ModelGroup struct {
	// Name is the population-rank label from the analysis ("A" largest).
	Name string
	// Count is the group's population in the training sample.
	Count int
	// Centroid is the L2-normalized mean of the members' normalized WL
	// feature vectors. Classification scores a query by its cosine
	// similarity to each centroid.
	Centroid wl.Vector
	// MeanInstances/MeanPlanCPU/MeanDuration are the group's mean
	// resource demand — the prediction a group label buys.
	MeanInstances float64
	MeanPlanCPU   float64
	MeanDuration  float64
}

// Model is the precomputed classification state a serving process loads
// at boot and hot-swaps on reload. It is immutable after construction:
// concurrent Classify calls share one Model without locking.
type Model struct {
	Schema string
	// WL are the kernel options the dictionary was built under; queries
	// must embed with the same options.
	WL wl.Options
	// Conflate records whether training graphs were node-conflated;
	// queries must live in the same representation.
	Conflate bool
	// Dict maps refined labels to dense ids. Classify embeds queries
	// through a frozen (read-only) view of it, so unseen labels fall
	// out of the vector — exactly the zero weight a cold label carries
	// against every centroid — and concurrent classification is safe.
	Dict   *wl.Dictionary
	Groups []ModelGroup
	// TrainedOn is the size of the training sample.
	TrainedOn int
	// Fingerprint ties the model to the Analysis it was extracted from.
	Fingerprint string
	// BuiltAt is when the model was extracted (UTC).
	BuiltAt time.Time

	// frozen is the immutable dictionary view Classify embeds through,
	// built once on first use (gob decoding leaves it nil).
	frozenOnce sync.Once
	frozen     *wl.Frozen
}

// frozenDict returns the model's immutable dictionary view.
func (m *Model) frozenDict() *wl.Frozen {
	m.frozenOnce.Do(func() { m.frozen = m.Dict.Freeze() })
	return m.frozen
}

// ExtractModel distills an Analysis into a serving Model. The analysis
// must carry kernel state (any Analysis produced by Run does); conflate
// mirrors the Config.Conflate the analysis ran under.
func ExtractModel(an *Analysis, conflate bool) (*Model, error) {
	if an == nil || an.dict == nil || len(an.vectors) != len(an.Graphs) {
		return nil, fmt.Errorf("core: analysis lacks kernel state; cannot extract model")
	}
	if len(an.Groups) == 0 {
		return nil, fmt.Errorf("core: analysis has no groups; cannot extract model")
	}
	fp, err := an.Fingerprint()
	if err != nil {
		return nil, err
	}
	m := &Model{
		Schema:      ModelSchema,
		WL:          an.wlOpts,
		Conflate:    conflate,
		Dict:        an.dict,
		TrainedOn:   len(an.Graphs),
		Fingerprint: fp,
		BuiltAt:     time.Now().UTC(),
	}
	for _, gp := range an.Groups {
		mg := ModelGroup{
			Name:          gp.Name,
			Count:         gp.Count,
			Centroid:      centroid(an.vectors, gp.Members),
			MeanInstances: gp.MeanInstances,
			MeanPlanCPU:   gp.MeanPlanCPU,
			MeanDuration:  gp.MeanDuration,
		}
		m.Groups = append(m.Groups, mg)
	}
	return m, nil
}

// centroid returns the L2-normalized mean of the members' normalized
// feature vectors. Normalizing each member first keeps one huge job
// from dominating its group's direction. All floating-point reductions
// run in sorted key order: fractional components make summation order
// visible in the last bits, and a model must classify identically on
// every machine that loads it.
func centroid(vectors []wl.Vector, members []int) wl.Vector {
	c := make(wl.Vector)
	for _, i := range members {
		v := vectors[i]
		// Count vectors are integral, so this self-product is exact in
		// any order; the division below is one rounding per component.
		n := math.Sqrt(wl.Dot(v, v))
		if n == 0 {
			continue
		}
		for k, x := range v {
			c[k] += x / n
		}
	}
	if n := math.Sqrt(sortedSelfDot(c)); n > 0 {
		for k := range c {
			c[k] /= n
		}
	}
	return c
}

// sortedKeys returns v's keys in increasing order.
func sortedKeys(v wl.Vector) []int {
	keys := make([]int, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedSelfDot is ⟨v, v⟩ accumulated in sorted key order.
func sortedSelfDot(v wl.Vector) float64 {
	var s float64
	for _, k := range sortedKeys(v) {
		s += v[k] * v[k]
	}
	return s
}

// centroidScore is the cosine similarity of an (integral) query vector
// against a unit-norm centroid, accumulated in sorted key order for
// bit-determinism. An empty query matches an empty centroid perfectly
// and any other centroid not at all, mirroring wl.Similarity.
func centroidScore(vec, c wl.Vector) float64 {
	vv := wl.Dot(vec, vec) // integral: exact in any order
	if vv == 0 {
		if len(c) == 0 {
			return 1
		}
		return 0
	}
	if len(c) == 0 {
		return 0
	}
	var num float64
	for _, k := range sortedKeys(vec) {
		num += vec[k] * c[k]
	}
	s := num / math.Sqrt(vv) // the centroid is unit-norm by construction
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// Classify embeds g with the model's dictionary and returns the group
// whose centroid it is most cosine-similar to, with the score in [0,1].
// Safe for concurrent use; the model is never mutated.
func (m *Model) Classify(g *dag.Graph) (ModelGroup, float64, error) {
	if len(m.Groups) == 0 {
		return ModelGroup{}, 0, fmt.Errorf("core: model has no groups")
	}
	vec, err := m.frozenDict().Embed(g, m.WL)
	if err != nil {
		return ModelGroup{}, 0, err
	}
	bestIdx, bestScore := 0, -1.0
	for i, mg := range m.Groups {
		s := centroidScore(vec, mg.Centroid)
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	return m.Groups[bestIdx], bestScore, nil
}

// maxModelIterations bounds the WL depth LoadModel accepts; trained
// models use single digits.
const maxModelIterations = 64

// modelHeader precedes the gob payload on disk so a truncated or alien
// file fails fast with a named error instead of a gob decode panic.
var modelHeader = []byte(ModelSchema + "\n")

// Save writes the model atomically (temp file + rename) so a reader
// never observes a half-written model, and fsyncs before the rename so
// a crash cannot leave a renamed-but-empty file.
func (m *Model) Save(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("core: model dir: %w", err)
		}
	}
	var buf bytes.Buffer
	buf.Write(modelHeader)
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".model-*")
	if err != nil {
		return fmt.Errorf("core: model temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("core: write model: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: sync model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: close model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: rename model: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save, verifying the schema header.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if !bytes.HasPrefix(data, modelHeader) {
		return nil, fmt.Errorf("core: %s is not a %s file", path, ModelSchema)
	}
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data[len(modelHeader):])).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode model %s: %w", path, err)
	}
	if m.Schema != ModelSchema {
		return nil, fmt.Errorf("core: model %s has schema %q, want %q", path, m.Schema, ModelSchema)
	}
	if m.Dict == nil {
		return nil, fmt.Errorf("core: model %s has no WL dictionary", path)
	}
	// Refinement cost is linear in the depth, so an absurd depth from a
	// corrupt file would stall every Classify call.
	if m.WL.Iterations > maxModelIterations {
		return nil, fmt.Errorf("core: model %s has %d WL iterations, limit %d",
			path, m.WL.Iterations, maxModelIterations)
	}
	return &m, nil
}
