// Similarity-search: index a job population with hashed WL feature
// vectors in a MinHash/LSH index and answer nearest-neighbour queries —
// "which existing jobs look like this incoming job?", the building block
// for the paper's scheduling use case (predicting resource demands of
// new jobs from similar old ones).
package main

import (
	"bytes"
	"fmt"
	"log"

	"jobgraph/internal/dag"
	"jobgraph/internal/sampling"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

func main() {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(10000, 99))
	if err != nil {
		log.Fatal(err)
	}
	cands, _, err := sampling.Filter(jobs, sampling.PaperCriteria(2*8*24*3600))
	if err != nil {
		log.Fatal(err)
	}
	corpus := sampling.Graphs(sampling.SampleDiverse(cands, 500, 1))

	// Build a persistent similarity index, round-trip it through its
	// JSON form (as a long-lived service would), and query the loaded
	// copy.
	built, err := wl.NewANNIndex(wl.DefaultOptions(), wl.DefaultSketchOptions())
	if err != nil {
		log.Fatal(err)
	}
	byID := make(map[string]*dag.Graph, len(corpus))
	for _, g := range corpus {
		if err := built.AddGraph(g); err != nil {
			log.Fatal(err)
		}
		byID[g.JobID] = g
	}
	var stored bytes.Buffer
	if err := built.SaveJSON(&stored); err != nil {
		log.Fatal(err)
	}
	index, err := wl.LoadANNIndexJSON(&stored)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d jobs (%d bytes persisted)\n\n", index.Len(), stored.Cap())

	// The "incoming" query job: a fresh 2-map/1-join/1-reduce DAG that
	// never appeared in the corpus.
	query := dag.New("incoming-job")
	mustAdd := func(n dag.Node) {
		if err := query.AddNode(n); err != nil {
			log.Fatal(err)
		}
	}
	mustAdd(dag.Node{ID: 1, Type: 'M', Duration: 40, Instances: 10})
	mustAdd(dag.Node{ID: 2, Type: 'M', Duration: 35, Instances: 8})
	mustAdd(dag.Node{ID: 3, Type: 'J', Duration: 60, Instances: 4})
	mustAdd(dag.Node{ID: 4, Type: 'R', Duration: 20, Instances: 2})
	for _, e := range [][2]dag.NodeID{{1, 3}, {2, 3}, {3, 4}} {
		if err := query.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("query job:\n%s\n", query.ASCII())

	hits, err := index.QueryGraph(query, 5)
	if err != nil {
		log.Fatal(err)
	}
	if len(hits) == 0 {
		fmt.Println("no corpus job shares an LSH bucket with the query")
		return
	}
	fmt.Printf("top %d most similar corpus jobs:\n", len(hits))
	for _, h := range hits {
		g := byID[h.JobID]
		depth, _ := g.Depth()
		width, _ := g.MaxWidth()
		fmt.Printf("  sim=%.3f  %s: %d tasks, depth %d, width %d\n",
			h.Similarity, h.JobID, g.Size(), depth, width)
	}

	// Predict the query's completion-time scale from its neighbours.
	var est float64
	for _, h := range hits {
		cpd, err := byID[h.JobID].CriticalPathDuration()
		if err != nil {
			log.Fatal(err)
		}
		est += cpd
	}
	est /= float64(len(hits))
	actual, _ := query.CriticalPathDuration()
	fmt.Printf("\nneighbour-predicted critical path: %.0fs (query's actual: %.0fs)\n", est, actual)
}
