package core

import (
	"fmt"
	"sync"

	"jobgraph/internal/obs"
)

// runPool executes work(i) for i in [0,n) across a bounded worker pool
// with deterministic error selection and cooperative cancellation —
// the per-job counterpart of wl.SymMatrixFromCompactOpts's row pool.
//
// Results must be written by work into caller-owned, index-addressed
// storage, so collection is order-stable by construction. When several
// workers fail, the error of the lowest item index wins regardless of
// completion order, matching what a sequential loop would have
// returned. onItem, when non-nil, is invoked serially after each item
// with (done, total); a non-nil return cancels the pool and surfaces as
// "core: <stage> aborted after done/total jobs". Per-worker throughput
// lands on the core.pool.<stage>.workerNN.items counters.
func runPool(stageName string, n, workers int, onItem func(done, total int) error, work func(i int) error) error {
	if n == 0 {
		return nil
	}
	// Pool liveness for the stall watchdog: armed before the first item,
	// beaten on every completion, disarmed when the pool drains — a pool
	// whose workers all wedge shows up as an active, silent heartbeat.
	hb := obs.Default().Heartbeat("core.pool." + stageName)
	hb.Beat()
	defer hb.Done()
	if workers <= 1 {
		done := 0
		for i := 0; i < n; i++ {
			if err := work(i); err != nil {
				return err
			}
			done++
			hb.Beat()
			if onItem != nil {
				if err := onItem(done, n); err != nil {
					return fmt.Errorf("core: %s aborted after %d/%d jobs: %w", stageName, done, n, err)
				}
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}

	items := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var (
		mu       sync.Mutex
		done     int
		firstIdx int = n
		firstErr error
		abortErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if err != nil && i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		halt()
	}
	finish := func() error {
		mu.Lock()
		defer mu.Unlock()
		done++
		if onItem == nil {
			return nil
		}
		if err := onItem(done, n); err != nil {
			if abortErr == nil {
				abortErr = fmt.Errorf("core: %s aborted after %d/%d jobs: %w", stageName, done, n, err)
			}
			return abortErr
		}
		return nil
	}

	// Windowed items/s across all workers: live throughput for this
	// stage on /metrics, alongside the per-worker lifetime counters.
	rate := obs.Default().RateCounter("core.pool."+stageName+".items", obs.DefaultWindow)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctr := obs.Default().Counter(fmt.Sprintf("core.pool.%s.worker%02d.items", stageName, w))
			for {
				var i int
				select {
				case i = <-items:
				case <-stop:
					return
				}
				if err := work(i); err != nil {
					fail(i, err)
					return
				}
				ctr.Add(1)
				rate.Add(1)
				hb.Beat()
				if err := finish(); err != nil {
					halt()
					return
				}
			}
		}(w)
	}
	go func() {
		// Hand out every index in order (ordered dispatch is what makes
		// the lowest-index error selection match the sequential loop),
		// then halt to release idle workers; wg.Wait is the barrier.
		for i := 0; i < n; i++ {
			select {
			case items <- i:
			case <-stop:
				return
			}
		}
		halt()
	}()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return abortErr
}
