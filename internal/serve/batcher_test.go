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
	delay   time.Duration
	block   chan struct{} // when non-nil, flush waits for a receive
	entered atomic.Int32  // flush calls started
}

func (e *echoFlush) flush(batch []*op) {
	e.entered.Add(1)
	if e.block != nil {
		<-e.block
	}
	if e.delay > 0 {
		time.Sleep(e.delay)
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

func TestBatcherFlushesBySize(t *testing.T) {
	e := &echoFlush{}
	b := newBatcher(BatcherConfig{BatchSize: 4, MaxWait: time.Hour, QueueDepth: 64, Registry: obs.NewRegistry()}, e.flush)
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := b.Submit(context.Background(), i)
			if err != nil || v.(int) != i {
				t.Errorf("submit %d: %v %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	// MaxWait is an hour: the only way these responded is a size flush.
	if e.batchCount() == 0 {
		t.Fatal("no batch flushed")
	}
}

func TestBatcherFlushesByMaxWait(t *testing.T) {
	e := &echoFlush{}
	b := newBatcher(BatcherConfig{BatchSize: 1000, MaxWait: 20 * time.Millisecond, QueueDepth: 64, Registry: obs.NewRegistry()}, e.flush)
	defer b.Close()

	start := time.Now()
	v, err := b.Submit(context.Background(), "solo")
	if err != nil || v.(string) != "solo" {
		t.Fatalf("submit: %v %v", v, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("single op waited %v; MaxWait flush did not fire", d)
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
	b := newBatcher(BatcherConfig{BatchSize: 1, MaxWait: time.Hour, QueueDepth: 2, Registry: obs.NewRegistry()}, e.flush)

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

func TestBatcherDrainFlushesAccepted(t *testing.T) {
	e := &echoFlush{delay: 10 * time.Millisecond}
	b := newBatcher(BatcherConfig{BatchSize: 100, MaxWait: time.Hour, QueueDepth: 64, Registry: obs.NewRegistry()}, e.flush)

	var wg sync.WaitGroup
	var ok, drained atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := b.Submit(context.Background(), "v")
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrDraining):
				drained.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the submits enqueue
	b.Close()
	wg.Wait()
	// MaxWait is an hour and BatchSize 100: only the drain sweep can have
	// flushed these.
	if ok.Load() == 0 {
		t.Fatal("drain did not flush accepted operations")
	}
	// After Close, new submits are refused outright.
	if _, err := b.Submit(context.Background(), "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
}

func TestBatcherSubmitHonorsContext(t *testing.T) {
	e := &echoFlush{block: make(chan struct{})}
	b := newBatcher(BatcherConfig{BatchSize: 1, MaxWait: time.Hour, QueueDepth: 8, Registry: obs.NewRegistry()}, e.flush)

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
