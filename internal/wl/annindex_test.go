package wl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"jobgraph/internal/dag"
)

// annCorpus builds n sample graphs with unique job ids and an ANNIndex
// over them.
func annCorpus(t testing.TB, n int, opt SketchOptions) (*ANNIndex, []*dag.Graph) {
	t.Helper()
	graphs := sampleGraphs(t, n, 11)
	for i, g := range graphs {
		g.JobID = fmt.Sprintf("job%03d", i)
	}
	ix, err := NewANNIndex(DefaultOptions(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range graphs {
		if err := ix.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	return ix, graphs
}

func TestANNIndexRejectsDuplicates(t *testing.T) {
	ix, graphs := annCorpus(t, 5, SketchOptions{})
	err := ix.AddGraph(graphs[0])
	if err == nil {
		t.Fatal("duplicate job id accepted")
	}
	if want := "wl: job job000 already indexed"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestANNIndexRejectsNonSubtreeBase(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = BaseShortestPath
	if _, err := NewANNIndex(opts, SketchOptions{}); err == nil {
		t.Fatal("non-subtree base accepted")
	}
}

func TestANNQueryJob(t *testing.T) {
	ix, _ := annCorpus(t, 40, SketchOptions{Hashes: 64, Bands: 64, Buckets: 1 << 16, Seed: 5})
	hits, err := ix.QueryJob("job007", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.JobID == "job007" {
			t.Fatal("query job returned itself")
		}
		if h.Similarity < 0 || h.Similarity > 1 {
			t.Fatalf("similarity %v out of range", h.Similarity)
		}
	}
	if _, err := ix.QueryJob("nope", 5); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := ix.QueryJob("job007", 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// At bands = hashes (1-row bands) a pair becomes a candidate when any
// single MinHash position agrees — probability 1-(1-J)^64, which is
// 1-5e-21 at J=0.5. So every sufficiently similar exact neighbour must
// appear in the candidate set: exact top-k ⊆ LSH candidates.
func TestANNCandidatesCoverExactTopK(t *testing.T) {
	const n, k = 60, 5
	opt := SketchOptions{Hashes: 64, Bands: 64, Buckets: 1 << 16, Seed: 9}
	ix, graphs := annCorpus(t, n, opt)
	vectors := make([]CompactVector, n)
	for i, g := range graphs {
		vectors[i] = hashedEmbed(g, ix.WLOptions(), opt.Buckets)
	}
	sigs, err := Sketches(vectors, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < n; q++ {
		// Exact top-k by cosine over the same hashed vectors.
		type pair struct {
			id  int
			sim float64
		}
		exact := make([]pair, 0, n-1)
		for j := 0; j < n; j++ {
			if j == q {
				continue
			}
			exact = append(exact, pair{j, Similarity(vectors[q], vectors[j])})
		}
		sort.Slice(exact, func(a, b int) bool {
			if exact[a].sim != exact[b].sim {
				return exact[a].sim > exact[b].sim
			}
			return exact[a].id < exact[b].id
		})
		cands := make(map[string]bool)
		for _, id := range ix.Candidates(vectors[q]) {
			cands[id] = true
		}
		for _, p := range exact[:k] {
			j, err := SketchJaccard(sigs[q], sigs[p.id])
			if err != nil {
				t.Fatal(err)
			}
			if j < 0.5 {
				continue // below the deterministic-coverage regime
			}
			if !cands[graphs[p.id].JobID] {
				t.Errorf("query %d: exact neighbour %s (sim %.3f, J %.2f) missing from candidates",
					q, graphs[p.id].JobID, p.sim, j)
			}
		}
	}
}

// Within its candidate set the re-rank is exact: at full-coverage
// settings ANN top-k must equal brute-force cosine top-k.
func TestANNRerankMatchesBruteForce(t *testing.T) {
	const n, k = 50, 3
	opt := SketchOptions{Hashes: 64, Bands: 64, Buckets: 1 << 16, Seed: 13}
	ix, graphs := annCorpus(t, n, opt)
	for q := 0; q < n; q += 7 {
		qv := hashedEmbed(graphs[q], ix.WLOptions(), opt.Buckets)
		hits, err := ix.Query(qv, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatalf("query %d: no hits", q)
		}
		// The query graph itself is indexed: top hit must be it at 1.0.
		if hits[0].Similarity < 1-1e-12 {
			t.Fatalf("query %d: top similarity %v", q, hits[0].Similarity)
		}
		for j := range hits {
			want := Similarity(qv, hashedEmbed(graphs[ixOf(t, ix, hits[j].JobID)], ix.WLOptions(), opt.Buckets))
			if math.Abs(hits[j].Similarity-want) > 1e-9 {
				t.Fatalf("query %d hit %s: sim %v, brute force %v", q, hits[j].JobID, hits[j].Similarity, want)
			}
		}
		_ = k
	}
}

func ixOf(t testing.TB, ix *ANNIndex, jobID string) int {
	t.Helper()
	i, ok := ix.byID[jobID]
	if !ok {
		t.Fatalf("job %s not indexed", jobID)
	}
	return int(i)
}

func TestANNIndexGobRoundTrip(t *testing.T) {
	ix, graphs := annCorpus(t, 30, SketchOptions{Hashes: 32, Bands: 8, Buckets: 1 << 14, Seed: 21})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadANNIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, got, graphs)

	// Alien bytes fail fast with the schema error, not a gob panic.
	if _, err := LoadANNIndex(strings.NewReader("not an index file at all\n")); err == nil ||
		!strings.Contains(err.Error(), ANNIndexSchema) {
		t.Fatalf("alien file error = %v", err)
	}
}

func TestANNIndexJSONRoundTrip(t *testing.T) {
	ix, graphs := annCorpus(t, 30, SketchOptions{Hashes: 32, Bands: 8, Buckets: 1 << 14, Seed: 21})
	var buf bytes.Buffer
	if err := ix.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadANNIndexJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, got, graphs)
}

func TestANNIndexGobCodec(t *testing.T) {
	ix, graphs := annCorpus(t, 12, SketchOptions{Hashes: 16, Bands: 4, Buckets: 1 << 12, Seed: 2})
	blob, err := ix.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got ANNIndex
	if err := got.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, &got, graphs)
}

// assertSameIndex checks a reloaded index answers queries identically.
func assertSameIndex(t *testing.T, want, got *ANNIndex, graphs []*dag.Graph) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len %d, want %d", got.Len(), want.Len())
	}
	if got.Options() != want.Options() {
		t.Fatalf("sketch options %+v, want %+v", got.Options(), want.Options())
	}
	for q := 0; q < len(graphs); q += 5 {
		a, err := want.QueryGraph(graphs[q], 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.QueryGraph(graphs[q], 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d hits vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].JobID != b[i].JobID || math.Abs(a[i].Similarity-b[i].Similarity) > 1e-12 {
				t.Fatalf("query %d hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestANNBulkLoadValidation(t *testing.T) {
	opt := SketchOptions{Hashes: 16, Bands: 4, Buckets: 1 << 12, Seed: 2}
	one, two := fromMap(map[int]float64{1: 1}), fromMap(map[int]float64{2: 1})
	sig, err := SketchVector(one, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewANNIndexFromSketches(DefaultOptions(), opt,
		[]string{"a", "b"}, []CompactVector{one}, []Sketch{sig, sig}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewANNIndexFromSketches(DefaultOptions(), opt,
		[]string{"a"}, []CompactVector{one}, []Sketch{make(Sketch, 8)}); err == nil {
		t.Fatal("wrong sketch width accepted")
	}
	ix, err := NewANNIndexFromSketches(DefaultOptions(), opt,
		[]string{"a", "b"}, []CompactVector{one, two}, []Sketch{sig, sig})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func TestANNCandidateNeighbors(t *testing.T) {
	ix, _ := annCorpus(t, 25, SketchOptions{Hashes: 32, Bands: 32, Buckets: 1 << 14, Seed: 4})
	nbr := ix.CandidateNeighbors(3)
	if len(nbr) != ix.Len() {
		t.Fatalf("neighbour lists %d, want %d", len(nbr), ix.Len())
	}
	for i, ns := range nbr {
		if len(ns) > 3 {
			t.Fatalf("job %d has %d neighbours, cap 3", i, len(ns))
		}
		for _, j := range ns {
			if int(j) == i {
				t.Fatalf("job %d is its own neighbour", i)
			}
		}
	}
}

func TestANNEmptyIndexQuery(t *testing.T) {
	ix, err := NewANNIndex(DefaultOptions(), SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.Query(fromMap(map[int]float64{1: 1}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits on empty index: %v", hits)
	}
}

// TestANNWireValidation feeds fromWire, the validator behind every ANN
// index decoder, one corruption at a time; each must be an error.
func TestANNWireValidation(t *testing.T) {
	ix, _ := annCorpus(t, 6, SketchOptions{Hashes: 16, Bands: 4, Buckets: 1 << 12, Seed: 2})
	fresh := func() annWire {
		w := ix.wire()
		w.Jobs = slices.Clone(w.Jobs)
		w.Keys = slices.Clone(w.Keys)
		w.Vals = slices.Clone(w.Vals)
		for i := range w.Vals {
			w.Keys[i] = slices.Clone(w.Keys[i])
			w.Vals[i] = slices.Clone(w.Vals[i])
		}
		return w
	}
	if _, err := fromWire(fresh()); err != nil {
		t.Fatalf("valid wire rejected: %v", err)
	}
	for name, corrupt := range map[string]func(w *annWire){
		"schema":          func(w *annWire) { w.Schema = "jobgraph-ann/v0" },
		"array lengths":   func(w *annWire) { w.Sigs = w.Sigs[1:] },
		"duplicate job":   func(w *annWire) { w.Jobs[1] = w.Jobs[0] },
		"key/val lengths": func(w *annWire) { w.Vals[0] = w.Vals[0][1:] },
		"unsorted keys":   func(w *annWire) { w.Keys[0][0], w.Keys[0][1] = w.Keys[0][1], w.Keys[0][0] },
		"negative count":  func(w *annWire) { w.Vals[0][0] = -1 },
		"NaN count":       func(w *annWire) { w.Vals[0][0] = float32(math.NaN()) },
		"+Inf count":      func(w *annWire) { w.Vals[0][0] = float32(math.Inf(1)) },
		"-Inf count":      func(w *annWire) { w.Vals[0][0] = float32(math.Inf(-1)) },
		"int32 overflow":  func(w *annWire) { w.Sketch.Buckets = math.MaxInt32 + 1 },
	} {
		w := fresh()
		corrupt(&w)
		if _, err := fromWire(w); err == nil {
			t.Errorf("%s: corrupt wire accepted", name)
		}
	}

	// The binary decoder routes through the same check.
	w := fresh()
	w.Vals[0][0] = float32(math.NaN())
	var buf bytes.Buffer
	buf.Write(annHeader)
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadANNIndex(&buf); err == nil {
		t.Fatal("LoadANNIndex accepted a NaN count")
	}
}

// fullCoverage is a 1-row-band geometry: any agreeing MinHash position
// makes a candidate, so small corpora behave like an exact index.
var fullCoverage = SketchOptions{Hashes: 64, Bands: 64, Buckets: 1 << 16, Seed: 3}

func TestIndexAddAndQuery(t *testing.T) {
	ix, err := NewANNIndex(DefaultOptions(), fullCoverage)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4} {
		g := chainGraph(t, "chain", n)
		g.JobID = fmt.Sprintf("chain%d", n)
		if err := ix.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 3 {
		t.Fatalf("len = %d", ix.Len())
	}
	hits, err := ix.QueryGraph(chainGraph(t, "q", 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].JobID != "chain3" || hits[0].Similarity != 1 {
		t.Fatalf("top hit = %+v", hits[0])
	}
	if hits[1].Similarity >= 1 {
		t.Fatalf("second hit = %+v", hits[1])
	}
}

func TestIndexQueryValidation(t *testing.T) {
	ix, _ := annCorpus(t, 5, fullCoverage)
	q := chainGraph(t, "q", 2)
	if _, err := ix.QueryGraph(q, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	hits, err := ix.QueryGraph(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	// An over-request returns the whole candidate set, re-ranked.
	if want := len(ix.Candidates(hashedEmbed(q, ix.WLOptions(), fullCoverage.Buckets))); len(hits) != want {
		t.Fatalf("over-request returned %d, candidate set has %d", len(hits), want)
	}
}

// TestIndexSaveLoadRoundTrip: a reloaded index answers like the original
// and still accepts and finds new jobs.
func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ix, graphs := annCorpus(t, 12, fullCoverage)
	var buf bytes.Buffer
	if err := ix.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadANNIndexJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, loaded, graphs)
	g := chainGraph(t, "new-one", 6)
	if err := loaded.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	hits, err := loaded.QueryGraph(chainGraph(t, "q", 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].JobID != "new-one" || hits[0].Similarity != 1 {
		t.Fatalf("new job not found after reload: %+v", hits)
	}
}

func TestLoadIndexRejectsCorrupt(t *testing.T) {
	const sketch = `"sketch":{"Buckets":64,"Hashes":4,"Bands":2,"Seed":1}`
	cases := map[string]string{
		"not json":         "{{{",
		"job/vec miscount": `{"schema":"jobgraph-annindex/v1","wl":{"Iterations":1},` + sketch + `,"jobs":["a"],"keys":[],"vals":[],"sigs":[]}`,
		"bad option":       `{"schema":"jobgraph-annindex/v1","wl":{"Iterations":-1},` + sketch + `,"jobs":[],"keys":[],"vals":[],"sigs":[]}`,
		"negative count":   `{"schema":"jobgraph-annindex/v1","wl":{"Iterations":1},` + sketch + `,"jobs":["a"],"keys":[[0]],"vals":[[-1]],"sigs":[[1,2,3,4]]}`,
		"wide buckets":     `{"schema":"jobgraph-annindex/v1","wl":{"Iterations":1},"sketch":{"Buckets":5000000000,"Hashes":4,"Bands":2,"Seed":1},"jobs":[],"keys":[],"vals":[],"sigs":[]}`,
	}
	for name, data := range cases {
		if _, err := LoadANNIndexJSON(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	valid := `{"schema":"jobgraph-annindex/v1","wl":{"Iterations":1},` + sketch + `,"jobs":["a"],"keys":[[0]],"vals":[[1]],"sigs":[[1,2,3,4]]}`
	if _, err := LoadANNIndexJSON(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}
}

func TestNewIndexRejectsBadOptions(t *testing.T) {
	if _, err := NewANNIndex(Options{Iterations: -2}, SketchOptions{}); err == nil {
		t.Fatal("bad WL options accepted")
	}
	if _, err := NewANNIndex(DefaultOptions(), SketchOptions{Buckets: 5000000000}); err == nil {
		t.Fatal("bucket count beyond the int32 key space accepted")
	}
}

func TestIndexEmptyQuery(t *testing.T) {
	ix, err := NewANNIndex(DefaultOptions(), SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.QueryGraph(chainGraph(t, "q", 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("empty index returned hits: %+v", hits)
	}
}
