package wl

import (
	"sync"
	"testing"
)

// TestSharedEmbedderConcurrent runs Frozen.Embed from 8 goroutines on
// one Frozen view, which shares embedder scratch through its pool,
// while HashedFeatures fans out over 4 workers. Every result must equal
// the sequential one; run under -race this also checks that no
// embedder state leaks between goroutines.
func TestSharedEmbedderConcurrent(t *testing.T) {
	graphs := sampleGraphs(t, 40, 31)
	opt := DefaultOptions()
	// Trained on half the corpus, so queries mix frozen hits and misses.
	_, d, err := Features(graphs[:20], opt)
	if err != nil {
		t.Fatal(err)
	}
	fz := d.Freeze()
	want := make([]CompactVector, len(graphs))
	for i, g := range graphs {
		if want[i], err = fz.Embed(g, opt); err != nil {
			t.Fatal(err)
		}
	}
	wantHashed, err := HashedFeatures(graphs, opt, 1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 9*len(graphs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range graphs {
				i := (j + 5*w) % len(graphs) // workers start at different graphs
				v, err := fz.Embed(graphs[i], opt)
				if err != nil || !vecEqual(v, want[i]) {
					errs <- "frozen embed differs from sequential"
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := HashedFeatures(graphs, opt, 1<<10, 4)
		if err != nil {
			errs <- err.Error()
			return
		}
		for i := range got {
			if !vecEqual(got[i], wantHashed[i]) {
				errs <- "hashed features at workers=4 differ from workers=1"
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
