package wl

import (
	"fmt"
	"runtime"
	"sync"

	"jobgraph/internal/dag"
	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
)

// obsKernelPairs counts pairwise similarity evaluations (upper
// triangle including the diagonal) — the O(n²) term every scaling
// argument about the kernel matrix rests on. obsKernelAborts counts
// computations cancelled through MatrixOptions.OnRow.
var (
	obsKernelPairs  = obs.Default().Counter("wl.kernel_pairs")
	obsKernelAborts = obs.Default().Counter("wl.kernel_aborts")
)

// MatrixOptions configures the parallel kernel-matrix computation.
type MatrixOptions struct {
	// Workers bounds the row-band goroutines (<=0: GOMAXPROCS).
	Workers int
	// OnRow, when non-nil, is invoked serially after each completed row
	// with the number of rows finished so far and the total. Returning a
	// non-nil error cancels the computation: in-flight rows finish, all
	// workers drain, and SymMatrixFromCompactOpts returns a nil matrix
	// wrapping the callback's error. This is the hook for progress
	// reporting, deadlines, and cooperative cancellation.
	OnRow func(done, total int) error
}

// KernelMatrix computes the normalized similarity matrix over the given
// job graphs — the data behind the paper's Figure 7 heat map. Entry
// (i, j) is Similarity(φ(Gi), φ(Gj)); the matrix is symmetric with unit
// diagonal.
//
// Feature extraction runs once, sequentially, against a shared label
// dictionary (interning must be deterministic); the O(n²) pairwise dot
// products are then fanned out across `workers` goroutines.
// workers <= 0 selects GOMAXPROCS.
func KernelMatrix(graphs []*dag.Graph, opt Options, workers int) (*linalg.SymMatrix, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("wl: kernel matrix over zero graphs")
	}
	vecs, _, err := Features(graphs, opt)
	if err != nil {
		return nil, err
	}
	return SymMatrixFromCompactOpts(vecs, MatrixOptions{Workers: workers})
}

// SymMatrixFromCompactOpts computes the normalized kernel over
// pre-computed feature vectors (they must share one label space) into
// a packed symmetric matrix — half the memory of the dense form, which
// is what the pipeline caches and ships between stages.
func SymMatrixFromCompactOpts(vecs []CompactVector, opt MatrixOptions) (*linalg.SymMatrix, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("wl: kernel matrix over zero vectors")
	}
	m := linalg.NewSymMatrix(n)
	if err := kernelPairs(vecs, opt, m.Set); err != nil {
		return nil, err
	}
	return m, nil
}

// kernelPairs runs the parallel pairwise computation, delivering each
// normalized upper-triangle cell (i <= j) exactly once through set.
// Workers own disjoint rows, so set never sees the same cell twice and
// needs no locking as long as distinct cells have distinct storage.
func kernelPairs(vecs []CompactVector, opt MatrixOptions, set func(i, j int, s float64)) error {
	n := len(vecs)
	self := make([]float64, n)
	for i := range vecs {
		self[i] = vecs[i].SelfDot()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Row i owns columns j >= i (upper triangle). Rows are handed out
	// via a channel so long rows (small i) and short rows (large i)
	// balance across workers without precomputing a schedule. On abort
	// the feeder stops handing out rows and closes the channel, so every
	// worker — including ones mid-row — exits after its current row; a
	// worker never writes outside its own rows, so the dropped result
	// holds no torn cells (it is discarded regardless).
	rows := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var mu sync.Mutex // guards done + abortErr, serializes OnRow
	var abortErr error
	done := 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				set(i, i, 1)
				for j := i + 1; j < n; j++ {
					// Distinct cells per (i,j): no write conflicts.
					set(i, j, normalizeKernel(vecs[i].Dot(vecs[j]), self[i], self[j]))
				}
				if opt.OnRow == nil {
					continue
				}
				mu.Lock()
				done++
				err := opt.OnRow(done, n)
				if err != nil && abortErr == nil {
					abortErr = fmt.Errorf("wl: kernel matrix aborted after %d/%d rows: %w", done, n, err)
				}
				mu.Unlock()
				if err != nil {
					stopOnce.Do(func() { close(stop) })
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case rows <- i:
		case <-stop:
			break feed
		}
	}
	close(rows)
	wg.Wait()
	if abortErr != nil {
		obsKernelAborts.Add(1)
		return abortErr
	}
	obsKernelPairs.Add(int64(n) * int64(n+1) / 2)
	return nil
}
