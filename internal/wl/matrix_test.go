package wl

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jobgraph/internal/dag"
)

func sampleGraphs(t testing.TB, n int, seed int64) []*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*dag.Graph, n)
	for i := range graphs {
		switch rng.Intn(3) {
		case 0:
			graphs[i] = chainGraph(t, "c", 2+rng.Intn(6))
		case 1:
			graphs[i] = triangleGraph(t, "t", 1+rng.Intn(5))
		default:
			graphs[i] = randomDAG(rng, "r", 2+rng.Intn(10))
		}
	}
	return graphs
}

func TestKernelMatrixProperties(t *testing.T) {
	graphs := sampleGraphs(t, 20, 1)
	m, err := KernelMatrix(graphs, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 20 || m.Cols != 20 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	for i := 0; i < 20; i++ {
		if m.At(i, i) != 1 {
			t.Fatalf("diagonal (%d) = %g", i, m.At(i, i))
		}
		for j := 0; j < 20; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("entry (%d,%d) = %g out of [0,1]", i, j, v)
			}
			if m.At(j, i) != v {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestKernelMatrixMatchesPairwise(t *testing.T) {
	graphs := sampleGraphs(t, 8, 2)
	m, err := KernelMatrix(graphs, DefaultOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	vecs, _, err := Features(graphs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := Similarity(vecs[i], vecs[j])
			if math.Abs(m.At(i, j)-want) > 1e-12 {
				t.Fatalf("(%d,%d): matrix %g vs pairwise %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestKernelMatrixWorkerCountInvariantProperty(t *testing.T) {
	// Result must be identical regardless of parallel fan-out.
	graphs := sampleGraphs(t, 12, 3)
	ref, err := KernelMatrix(graphs, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(w uint8) bool {
		workers := 1 + int(w%16)
		m, err := KernelMatrix(graphs, DefaultOptions(), workers)
		if err != nil {
			return false
		}
		for i := range ref.Data {
			if ref.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelMatrixDefaultWorkers(t *testing.T) {
	graphs := sampleGraphs(t, 5, 4)
	if _, err := KernelMatrix(graphs, DefaultOptions(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := KernelMatrix(graphs, DefaultOptions(), 100); err != nil {
		t.Fatal(err) // more workers than rows must still work
	}
}

func TestKernelMatrixEmptyInput(t *testing.T) {
	if _, err := KernelMatrix(nil, DefaultOptions(), 1); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := SymMatrixFromCompactOpts(nil, MatrixOptions{Workers: 1}); err == nil {
		t.Fatal("empty vectors accepted")
	}
}

func TestKernelMatrixWithEmptyGraphs(t *testing.T) {
	graphs := []*dag.Graph{dag.New("e1"), chainGraph(t, "c", 3), dag.New("e2")}
	m, err := KernelMatrix(graphs, DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 1 {
		t.Fatalf("empty-empty = %g, want 1", m.At(0, 2))
	}
	if m.At(0, 1) != 0 {
		t.Fatalf("empty-chain = %g, want 0", m.At(0, 1))
	}
	if m.At(0, 0) != 1 {
		t.Fatalf("empty diagonal = %g, want 1", m.At(0, 0))
	}
}

func TestIdenticalChainsClusterAtOne(t *testing.T) {
	// The paper observes small chain jobs produce blocks of exact 1.0
	// similarity in Figure 7.
	graphs := []*dag.Graph{
		chainGraph(t, "a", 3), chainGraph(t, "b", 3), chainGraph(t, "c", 3),
	}
	m, err := KernelMatrix(graphs, DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 1 {
				t.Fatalf("identical chains (%d,%d) = %g", i, j, m.At(i, j))
			}
		}
	}
}

func testVectors(t testing.TB, n int, seed int64) []CompactVector {
	t.Helper()
	vecs, _, err := Features(sampleGraphs(t, n, seed), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return vecs
}

func TestMatrixOnRowProgress(t *testing.T) {
	vecs := testVectors(t, 25, 5)
	var calls int
	last := 0
	m, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 1, OnRow: func(done, total int) error {
		calls++
		if total != 25 || done != last+1 {
			t.Fatalf("progress (%d,%d) after %d", done, total, last)
		}
		last = done
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 25 || m == nil {
		t.Fatalf("calls = %d, matrix nil = %v", calls, m == nil)
	}
}

// TestMatrixAbortMidRun cancels the parallel computation from the OnRow
// callback and checks the contract: nil matrix, the callback's error
// wrapped, no goroutine leak, and no worker stuck feeding. Run under
// -race this also proves the abort path has no unsynchronized state.
func TestMatrixAbortMidRun(t *testing.T) {
	vecs := testVectors(t, 60, 6)
	before := runtime.NumGoroutine()
	boom := errors.New("deadline blown")
	for trial := 0; trial < 20; trial++ {
		m, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 8, OnRow: func(done, total int) error {
			if done >= 3+trial {
				return boom
			}
			return nil
		}})
		if m != nil {
			t.Fatalf("trial %d: aborted run returned a matrix", trial)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: err = %v, want wrapped boom", trial, err)
		}
		if !strings.Contains(err.Error(), "aborted after") {
			t.Fatalf("trial %d: err lacks progress context: %v", trial, err)
		}
	}
	// All workers and the feeder must have drained. Allow the runtime a
	// moment to reap finished goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

func TestMatrixAbortFirstRow(t *testing.T) {
	vecs := testVectors(t, 10, 7)
	boom := errors.New("stop immediately")
	m, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 4, OnRow: func(done, total int) error {
		return boom
	}})
	if m != nil || !errors.Is(err, boom) {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestMatrixOptsMatchesPlain(t *testing.T) {
	vecs := testVectors(t, 15, 8)
	a, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: 4, OnRow: func(done, total int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("matrices differ at (%d,%d)", i, j)
			}
		}
	}
}
