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
	"slices"
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
	Centroid wl.CompactVector
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
// from dominating its group's direction. Members merge in member order
// and the norm accumulates in key order: fractional components make
// summation order visible in the last bits, and a model must classify
// identically on every machine that loads it.
func centroid(vectors []wl.CompactVector, members []int) wl.CompactVector {
	var c wl.CompactVector
	for _, i := range members {
		v := vectors[i]
		// Count vectors are integral, so this self-product is exact; the
		// division below is one rounding per component.
		if n := math.Sqrt(v.SelfDot()); n > 0 {
			c = addScaled(c, v, n)
		}
	}
	if n := math.Sqrt(c.SelfDot()); n > 0 {
		for k := range c.Vals {
			c.Vals[k] /= n
		}
	}
	return c
}

// addScaled returns the sorted merge of c and v/n, adding v[k]/n to
// c[k] where both hold key k.
func addScaled(c, v wl.CompactVector, n float64) wl.CompactVector {
	out := wl.CompactVector{
		Keys: make([]int32, 0, len(c.Keys)+len(v.Keys)),
		Vals: make([]float64, 0, len(c.Keys)+len(v.Keys)),
	}
	i, j := 0, 0
	for i < len(c.Keys) || j < len(v.Keys) {
		switch {
		case j == len(v.Keys) || (i < len(c.Keys) && c.Keys[i] < v.Keys[j]):
			out.Keys = append(out.Keys, c.Keys[i])
			out.Vals = append(out.Vals, c.Vals[i])
			i++
		case i == len(c.Keys) || v.Keys[j] < c.Keys[i]:
			out.Keys = append(out.Keys, v.Keys[j])
			out.Vals = append(out.Vals, v.Vals[j]/n)
			j++
		default:
			out.Keys = append(out.Keys, c.Keys[i])
			out.Vals = append(out.Vals, c.Vals[i]+v.Vals[j]/n)
			i++
			j++
		}
	}
	return out
}

// centroidScore is the cosine similarity of an (integral) query vector
// against a unit-norm centroid: one merge-join, accumulated in key
// order for bit-determinism. An empty query matches an empty centroid
// perfectly and any other centroid not at all, mirroring wl.Similarity.
func centroidScore(vec, c wl.CompactVector) float64 {
	vv := vec.SelfDot() // integral: exact in any order
	if vv == 0 {
		if len(c.Keys) == 0 {
			return 1
		}
		return 0
	}
	if len(c.Keys) == 0 {
		return 0
	}
	s := vec.Dot(c) / math.Sqrt(vv) // the centroid is unit-norm by construction
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
	if err := gob.NewEncoder(&buf).Encode(m.wire()); err != nil {
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
	var w modelWire
	if err := gob.NewDecoder(bytes.NewReader(data[len(modelHeader):])).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decode model %s: %w", path, err)
	}
	m, err := w.model()
	if err != nil {
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
	return m, nil
}

// modelWire is the gob form of a Model. Centroids travel as the
// label-id → weight maps the jobgraph-model/v1 format has always
// carried, so model files written before centroids became compact
// vectors still load.
type modelWire struct {
	Schema      string
	WL          wl.Options
	Conflate    bool
	Dict        *wl.Dictionary
	Groups      []groupWire
	TrainedOn   int
	Fingerprint string
	BuiltAt     time.Time
}

type groupWire struct {
	Name          string
	Count         int
	Centroid      map[int]float64
	MeanInstances float64
	MeanPlanCPU   float64
	MeanDuration  float64
}

func (m *Model) wire() modelWire {
	w := modelWire{Schema: m.Schema, WL: m.WL, Conflate: m.Conflate, Dict: m.Dict,
		TrainedOn: m.TrainedOn, Fingerprint: m.Fingerprint, BuiltAt: m.BuiltAt}
	for _, mg := range m.Groups {
		c := make(map[int]float64, len(mg.Centroid.Keys))
		for i, k := range mg.Centroid.Keys {
			c[int(k)] = mg.Centroid.Vals[i]
		}
		w.Groups = append(w.Groups, groupWire{Name: mg.Name, Count: mg.Count, Centroid: c,
			MeanInstances: mg.MeanInstances, MeanPlanCPU: mg.MeanPlanCPU, MeanDuration: mg.MeanDuration})
	}
	return w
}

// model rebuilds the Model, sorting each centroid into compact form.
func (w modelWire) model() (*Model, error) {
	m := &Model{Schema: w.Schema, WL: w.WL, Conflate: w.Conflate, Dict: w.Dict,
		TrainedOn: w.TrainedOn, Fingerprint: w.Fingerprint, BuiltAt: w.BuiltAt}
	for _, g := range w.Groups {
		var c wl.CompactVector
		for k, x := range g.Centroid {
			if k < 0 || k > math.MaxInt32 {
				return nil, fmt.Errorf("group %s: centroid key %d outside the int32 key space", g.Name, k)
			}
			if x != 0 {
				c.Keys = append(c.Keys, int32(k))
			}
		}
		slices.Sort(c.Keys)
		for _, k := range c.Keys {
			c.Vals = append(c.Vals, g.Centroid[int(k)])
		}
		m.Groups = append(m.Groups, ModelGroup{Name: g.Name, Count: g.Count, Centroid: c,
			MeanInstances: g.MeanInstances, MeanPlanCPU: g.MeanPlanCPU, MeanDuration: g.MeanDuration})
	}
	return m, nil
}
