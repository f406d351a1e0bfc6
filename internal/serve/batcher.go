// Bounded admission batching: every mutating request enters a fixed-
// depth queue and is flushed by one loop in groups, so the daemon gets
// group-committed journal writes and explicit backpressure instead of
// unbounded goroutine pileup. A group is whatever queued up while the
// previous flush ran; an idle daemon flushes each op as it arrives. A
// full queue fails enqueue immediately (the HTTP layer turns that into
// 429 + Retry-After); nothing in the admission path ever grows without
// bound.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"jobgraph/internal/obs"
)

// Batcher errors, mapped onto HTTP status by the server.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity — the backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining is returned by Submit once shutdown has begun —
	// accepted work still flushes, new work is refused (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// BatcherConfig parameterizes the admission batcher.
type BatcherConfig struct {
	// BatchSize caps how many queued operations one flush takes.
	BatchSize int
	// QueueDepth bounds the admission queue; an enqueue beyond it fails
	// with ErrQueueFull.
	QueueDepth int
	// Registry supplies the heartbeat and clock; defaults to
	// obs.Default().
	Registry *obs.Registry
}

func (c *BatcherConfig) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
}

// op is one queued operation: a request plus the channel its response
// travels back on. done is buffered so a flush can respond after the
// submitter has abandoned the wait (deadline expiry) without leaking.
type op struct {
	ctx  context.Context
	req  any
	done chan opResult
}

type opResult struct {
	v   any
	err error
}

func (o *op) respond(v any, err error) {
	o.done <- opResult{v, err}
}

// Batcher runs the admission loop. Construct with newBatcher, which
// starts the loop; Close drains and stops it.
type Batcher struct {
	cfg   BatcherConfig
	flush func([]*op)

	queue     chan *op
	draining  chan struct{} // closed when Close begins: Submit refuses
	dead      chan struct{} // closed when the loop has fully exited
	stopped   chan struct{} // loop exit signal for Close to wait on
	closeOnce sync.Once
}

// newBatcher starts the admission loop around flush. flush is invoked
// from exactly one goroutine with batches of 1..BatchSize operations
// and must respond to every op it is handed.
func newBatcher(cfg BatcherConfig, flush func([]*op)) *Batcher {
	cfg.defaults()
	b := &Batcher{
		cfg:      cfg,
		flush:    flush,
		queue:    make(chan *op, cfg.QueueDepth),
		draining: make(chan struct{}),
		dead:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues req and waits for its response. It fails fast with
// ErrQueueFull when the queue is at capacity and ErrDraining during
// shutdown; it returns ctx's error if the deadline expires first (the
// operation may still be processed — journaled work is never undone).
func (b *Batcher) Submit(ctx context.Context, req any) (any, error) {
	select {
	case <-b.draining:
		return nil, ErrDraining
	default:
	}
	o := &op{ctx: ctx, req: req, done: make(chan opResult, 1)}
	select {
	case b.queue <- o:
	default:
		return nil, ErrQueueFull
	}
	select {
	case r := <-o.done:
		return r.v, r.err
	case <-b.dead:
		// The loop exited between our enqueue and its final sweep; the
		// sweep responds ErrDraining to every leftover, so one more
		// receive cannot block.
		select {
		case r := <-o.done:
			return r.v, r.err
		default:
			return nil, ErrDraining
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// idleBeat is the idle heartbeat cadence: frequent enough that any
// plausible -watchdog budget sees a live loop, coarse enough to cost
// nothing.
const idleBeat = 100 * time.Millisecond

// run is the admission loop, a classic group commit: block for the
// first op, take whatever else is already queued (up to BatchSize), and
// flush at once. Ops that arrive while a flush and its fsyncs run wait
// in the queue and form the next batch, so batching happens only while
// there is disk work to amortise and a lone op never waits on a timer.
// The loop's heartbeat beats on every arrival and on idle ticks, so the
// stall watchdog distinguishes "no traffic" from "wedged".
func (b *Batcher) run() {
	reg := b.cfg.Registry
	hb := reg.Heartbeat("serve.batcher")
	hb.Beat()
	defer hb.Done()
	defer close(b.stopped)

	idle := time.NewTicker(idleBeat)
	defer idle.Stop()

	for {
		select {
		case o := <-b.queue:
			hb.Beat()
			b.flush(b.collect(o))
		case <-idle.C:
			hb.Beat()
		case <-b.draining:
			// Shutdown: sweep everything already enqueued into final
			// batches, then refuse the rest.
			for {
				select {
				case o := <-b.queue:
					b.flush(b.collect(o))
				default:
					close(b.dead)
					// Final sweep: anything that raced into the queue
					// after the drain loop saw it empty was never
					// journaled — refuse it so the client retries.
					for {
						select {
						case o := <-b.queue:
							o.respond(nil, ErrDraining)
						default:
							return
						}
					}
				}
			}
		}
	}
}

// collect returns a batch of first plus every op already queued behind
// it, up to BatchSize, without blocking.
func (b *Batcher) collect(first *op) []*op {
	batch := []*op{first}
	for len(batch) < b.cfg.BatchSize {
		select {
		case o := <-b.queue:
			batch = append(batch, o)
		default:
			return batch
		}
	}
	return batch
}

// Close begins the drain: new Submits fail with ErrDraining, operations
// already accepted are flushed, and Close returns when the loop has
// exited. Idempotent and safe to call concurrently.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.draining) })
	<-b.stopped
}
