package wl

import (
	"bytes"
	"testing"
)

// FuzzLoadANNIndex drives both index decoders, LoadANNIndex (gob) and
// LoadANNIndexJSON, with arbitrary bytes. Each input must either be
// rejected with an error or yield an index every query path can run
// on without panicking.
func FuzzLoadANNIndex(f *testing.F) {
	ix, _ := annCorpus(f, 6, SketchOptions{Hashes: 16, Bands: 4, Buckets: 1 << 12, Seed: 2})
	var bin, js bytes.Buffer
	if err := ix.Save(&bin); err != nil {
		f.Fatal(err)
	}
	if err := ix.SaveJSON(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()/2])
	f.Add(js.Bytes())
	f.Add(js.Bytes()[:js.Len()/2])
	f.Add(annHeader)
	f.Add([]byte(`{"schema":"jobgraph-annindex/v1","wl":{"Iterations":1},"sketch":{"Buckets":64,"Hashes":4,"Bands":2,"Seed":1},"jobs":["a"],"keys":[[-3]],"vals":[[2]],"sigs":[[1,2,3,4]]}`))
	f.Add([]byte(`{"schema":"jobgraph-annindex/v1","sketch":{"Hashes":1099511627776,"Bands":16}}`))

	query := fromMap(map[int]float64{1: 1, 7: 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func([]byte) (*ANNIndex, error){
			func(b []byte) (*ANNIndex, error) { return LoadANNIndex(bytes.NewReader(b)) },
			func(b []byte) (*ANNIndex, error) { return LoadANNIndexJSON(bytes.NewReader(b)) },
		} {
			ix, err := load(data)
			if err != nil {
				continue // explicit rejection is allowed
			}
			if len(ix.JobIDs()) != ix.Len() {
				t.Fatalf("%d job ids for %d jobs", len(ix.JobIDs()), ix.Len())
			}
			if _, err := ix.Query(query, 3); err != nil {
				t.Fatalf("query on a loaded index: %v", err)
			}
			ix.Candidates(query)
			ix.CandidateNeighbors(2)
			for _, id := range ix.JobIDs() {
				if _, err := ix.QueryJob(id, 3); err != nil {
					t.Fatalf("query job %s: %v", id, err)
				}
			}
		}
	})
}
