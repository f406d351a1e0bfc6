package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jobgraph/internal/obs"
)

// echoFlush responds to every op with its request, recording batches.
type echoFlush struct {
	mu      sync.Mutex
	batches [][]*op
	block   chan struct{} // when non-nil, flush waits for a receive
	entered atomic.Int32  // flush calls started
}

func (e *echoFlush) flush(batch []*op) {
	e.entered.Add(1)
	if e.block != nil {
		<-e.block
	}
	e.mu.Lock()
	e.batches = append(e.batches, batch)
	e.mu.Unlock()
	for _, o := range batch {
		o.respond(o.req, nil)
	}
}

func (e *echoFlush) batchCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.batches)
}

// A flush takes at most BatchSize ops: six ops queued behind a wedged
// flush leave in batches of four and two.
func TestBatcherFlushesBySize(t *testing.T) {
	e := &echoFlush{block: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 4, QueueDepth: 64, Registry: obs.NewRegistry()}, e.flush)
	defer b.Close()

	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		v, err := b.Submit(context.Background(), i)
		if err != nil || v.(int) != i {
			t.Errorf("submit %d: %v %v", i, v, err)
		}
	}
	wg.Add(1)
	go submit(0)
	waitFor(t, "flush to wedge", func() bool { return e.entered.Load() == 1 })
	for i := 1; i <= 6; i++ {
		wg.Add(1)
		go submit(i)
	}
	waitFor(t, "six ops to queue", func() bool { return len(b.queue) == 6 })
	close(e.block)
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	var sizes []int
	for _, batch := range e.batches {
		sizes = append(sizes, len(batch))
	}
	if len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("batch sizes %v, want [1 4 2]", sizes)
	}
}

// gatedFlush hands each batch to the test as its flush starts and holds
// the flush until the test releases it. Closing done lets every flush
// through, so a failed test can still Close the batcher.
type gatedFlush struct {
	started chan []*op
	release chan struct{}
	done    chan struct{}
}

func (g *gatedFlush) flush(batch []*op) {
	select {
	case g.started <- batch:
		select {
		case <-g.release:
		case <-g.done:
		}
	case <-g.done:
	}
	for _, o := range batch {
		o.respond(o.req, nil)
	}
}

// next returns the batch of the next flush to start.
func (g *gatedFlush) next(t *testing.T) []*op {
	t.Helper()
	select {
	case batch := <-g.started:
		return batch
	case <-time.After(10 * time.Second):
		t.Fatal("no flush started")
		return nil
	}
}

// Group commit: a lone op is flushed by itself, with no timer and no
// size threshold in the way, and ops submitted while that flush runs
// all arrive together in the next batch.
func TestBatcherGroupCommit(t *testing.T) {
	g := &gatedFlush{started: make(chan []*op), release: make(chan struct{}), done: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 1000, QueueDepth: 64, Registry: obs.NewRegistry()}, g.flush)
	defer func() {
		close(g.done)
		b.Close()
	}()

	const queued = 8
	results := make(chan error, 1+queued)
	submit := func(v string) {
		_, err := b.Submit(context.Background(), v)
		results <- err
	}
	go submit("solo")
	if batch := g.next(t); len(batch) != 1 || batch[0].req != "solo" {
		t.Fatalf("first flush got %d ops, want the lone op", len(batch))
	}

	for i := 0; i < queued; i++ {
		go submit("queued")
	}
	waitFor(t, "ops to queue behind the flush", func() bool { return len(b.queue) == queued })
	g.release <- struct{}{}
	if batch := g.next(t); len(batch) != queued {
		t.Fatalf("second flush got %d ops, want all %d that queued during the first", len(batch), queued)
	}
	g.release <- struct{}{}
	for i := 0; i < 1+queued; i++ {
		if err := <-results; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// waitFor polls cond until it holds or the test deadline hits.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherQueueFull(t *testing.T) {
	// flush blocks on <-e.block until the gate is closed, wedging the
	// loop so the queue genuinely backs up.
	e := &echoFlush{block: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 1, QueueDepth: 2, Registry: obs.NewRegistry()}, e.flush)

	results := make(chan error, 3)
	go func() {
		_, err := b.Submit(context.Background(), "wedge")
		results <- err
	}()
	// The loop has picked the op up and is wedged in flush. (An empty
	// queue alone does not show that: the wedge op may not have been
	// submitted yet, and would then race the two below for the queue.)
	waitFor(t, "flush to wedge", func() bool { return e.entered.Load() == 1 })

	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Submit(context.Background(), "queued")
			results <- err
		}()
	}
	waitFor(t, "queue to fill", func() bool { return len(b.queue) == 2 })

	// Queue (depth 2) full while flush is wedged: overflow bounces fast.
	if _, err := b.Submit(context.Background(), "overflow"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}

	close(e.block) // release the flush; everything accepted completes
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("accepted submit failed: %v", err)
		}
	}
	b.Close()
}

// Ops accepted before Close are flushed before Close returns, even when
// they are still queued behind a wedged flush as the drain begins.
func TestBatcherDrainFlushesAccepted(t *testing.T) {
	e := &echoFlush{block: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 100, QueueDepth: 64, Registry: obs.NewRegistry()}, e.flush)

	const n = 8
	results := make(chan error, n)
	submit := func() {
		_, err := b.Submit(context.Background(), "v")
		results <- err
	}
	go submit()
	waitFor(t, "flush to wedge", func() bool { return e.entered.Load() == 1 })
	for i := 1; i < n; i++ {
		go submit()
	}
	waitFor(t, "ops to queue", func() bool { return len(b.queue) == n-1 })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "drain to begin", func() bool {
		select {
		case <-b.draining:
			return true
		default:
			return false
		}
	})
	close(e.block)
	<-closed
	flushed := 0
	for _, batch := range e.batches { // Close waited for the loop: no race
		flushed += len(batch)
	}
	if flushed != n {
		t.Fatalf("Close returned after flushing %d of %d accepted ops", flushed, n)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("accepted submit failed: %v", err)
		}
	}
	// After Close, new submits are refused outright.
	if _, err := b.Submit(context.Background(), "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
}

func TestBatcherSubmitHonorsContext(t *testing.T) {
	e := &echoFlush{block: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 1, QueueDepth: 8, Registry: obs.NewRegistry()}, e.flush)

	// Wedge the flush goroutine so a second submit has to wait.
	go b.Submit(context.Background(), "wedge")
	waitFor(t, "flush to wedge", func() bool { return len(b.queue) == 0 && e.batchCount() == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, "waits")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit under expired deadline: %v", err)
	}

	close(e.block)
	b.Close()
}

func TestBatcherCloseConcurrent(t *testing.T) {
	e := &echoFlush{}
	b := newBatcher(BatcherConfig{Registry: obs.NewRegistry()}, e.flush)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
	}
	wg.Wait()
}
