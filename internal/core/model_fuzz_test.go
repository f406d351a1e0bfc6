package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
	"jobgraph/internal/wl"
)

// fuzzGraph is the fixed job every fuzzed model must classify: two maps
// feeding a join that feeds a reduce.
func fuzzGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.New("fuzz")
	for i, typ := range []taskname.Type{taskname.TypeMap, taskname.TypeMap, taskname.TypeJoin, taskname.TypeReduce} {
		if err := g.AddNode(dag.Node{ID: dag.NodeID(i + 1), Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]dag.NodeID{{1, 3}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// rawIDs gob-encodes like a wl.Dictionary but carries arbitrary ids,
// so a seed can hold a dictionary Dictionary.GobEncode never writes.
type rawIDs map[string]int

func (r rawIDs) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(map[string]int(r))
	return buf.Bytes(), err
}

// FuzzLoadModel drives LoadModel with arbitrary file bytes. Each input
// must either be rejected with an error or yield a model that
// classifies a fixed graph without panicking.
func FuzzLoadModel(f *testing.F) {
	g := fuzzGraph(f)
	opt := wl.DefaultOptions()
	vecs, dict, err := wl.Features([]*dag.Graph{g, dag.New("empty")}, opt)
	if err != nil {
		f.Fatal(err)
	}
	m := &Model{
		Schema: ModelSchema,
		WL:     opt,
		Dict:   dict,
		Groups: []ModelGroup{
			{Name: "A", Count: 1, Centroid: centroid(vecs, []int{0})},
			{Name: "B", Count: 1, Centroid: centroid(vecs, []int{1})},
		},
		TrainedOn: 2,
	}
	path := filepath.Join(f.TempDir(), "model.gob")
	if err := m.Save(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(modelHeader)
	f.Add([]byte("not a model"))

	// A model whose dictionary maps a refined label of the fixed graph to
	// a negative id.
	bad := bytes.NewBuffer(append([]byte(nil), modelHeader...))
	if err := gob.NewEncoder(bad).Encode(struct {
		Schema string
		WL     wl.Options
		Dict   rawIDs
		Groups []groupWire
	}{ModelSchema, opt, rawIDs{"M": 0, "M(P:|S:J)": -7}, m.wire().Groups}); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())

	// A model with no dictionary at all.
	noDict := &Model{Schema: ModelSchema, WL: opt, Groups: m.Groups}
	if err := noDict.Save(path); err != nil {
		f.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil {
		f.Fatal(err)
	} else {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "model.gob")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(path)
		if err != nil {
			return // explicit rejection is allowed
		}
		// Any outcome but a panic is acceptable.
		_, _, _ = m.Classify(g)
	})
}
