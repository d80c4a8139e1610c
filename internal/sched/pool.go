package sched

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ErrQueueFull is returned by Pool.Submit when the bounded queue has no
// free slot. Service front ends translate it into backpressure (HTTP 429
// with Retry-After) instead of letting the queue grow without bound.
var ErrQueueFull = errors.New("sched: pool queue full")

// ErrPoolClosed is returned by Pool.Submit after Shutdown began: the pool
// drains what it has but accepts nothing new.
var ErrPoolClosed = errors.New("sched: pool closed")

// Pool is where every job executes: a fixed set of workers consuming a
// bounded queue of context-carrying jobs. Run fills one with a batch and
// drains it; a service front end (cmd/cobrad) keeps one open and submits
// sessions continuously. Each job gets ledger reuse with corrupt-entry
// recovery, panic isolation, and cancellation before and during
// execution; a cancelled job is never recorded as complete.
type Pool[T any] struct {
	opt   Options
	total int // Event.Total: Run's distinct-job count, 0 on a service pool
	queue chan poolItem[T]
	wg    sync.WaitGroup

	mu     sync.Mutex // guards closed
	closed bool

	hookMu   sync.Mutex // serializes hooks and guards their counters
	started  int
	finished int

	queued  atomic.Int64
	running atomic.Int64
}

type poolItem[T any] struct {
	ctx  context.Context
	job  Job[T]
	done func(Result[T])
}

// NewPool starts the workers and returns the pool. depth bounds the
// number of submitted-but-unstarted jobs; <= 0 means 2×workers, and a
// full queue rejects Submit with ErrQueueFull. Hooks events carry
// Total == 0 (a service pool has no fixed job count) and Seq counts over
// the pool's lifetime. Callers must Shutdown to release the workers.
func NewPool[T any](opt Options, depth int) *Pool[T] {
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	p := &Pool[T]{opt: opt, queue: make(chan poolItem[T], depth)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool[T]) worker() {
	defer p.wg.Done()
	for it := range p.queue {
		p.queued.Add(-1)
		p.running.Add(1)
		r := p.execute(it.ctx, it.job)
		if r.Cached {
			p.emit(p.opt.Hooks.Cached, &p.finished, Event{Name: r.Name, Key: r.Key})
		} else {
			p.emit(p.opt.Hooks.Finished, &p.finished, Event{Name: r.Name, Key: r.Key, Elapsed: r.Elapsed, Err: r.Err})
		}
		p.running.Add(-1)
		if it.done != nil {
			it.done(r)
		}
	}
}

// execute runs one job under ctx: ledger lookup (with corrupt-entry
// recovery), cancellation before and after execution, panic isolation,
// and the ledger write. The Started hook fires exactly when real
// execution begins — never for a ledger hit or a pre-start cancellation.
func (p *Pool[T]) execute(ctx context.Context, j Job[T]) Result[T] {
	r := Result[T]{Name: j.Name, Key: j.Key}
	// A job whose context is already done never starts — and is reported
	// as cancelled even if a ledger entry exists, so callers observe one
	// consistent outcome for cancellation regardless of cache state.
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	led := p.opt.Ledger
	var readErr error
	if j.Key != "" && led != nil {
		var hit bool
		hit, readErr = led.Get(j.Key, &r.Value)
		if readErr != nil {
			// Recovered (corrupt entry quarantined by the ledger): log and
			// fall through to a fresh execution.
			p.opt.logf("sched: %v", readErr)
		}
		if hit {
			r.Cached = true
			return r
		}
	}
	p.emit(p.opt.Hooks.Started, &p.started, Event{Name: j.Name, Key: j.Key})
	t0 := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				r.Err = &PanicError{Value: v, Stack: debug.Stack()}
				p.opt.logf("sched: job %s panicked: %v\n%s", j.Name, v, r.Err.(*PanicError).Stack)
			}
		}()
		r.Value, r.Err = j.Run(ctx)
	}()
	// A run that raced with cancellation reports the cancellation: the
	// ledger must never record a cancelled job as complete, and callers
	// must never observe a "done" result for a session they cancelled.
	if r.Err == nil {
		if err := ctx.Err(); err != nil {
			r.Err = err
		}
	}
	r.Elapsed = time.Since(t0)
	if r.Err == nil && j.Key != "" && led != nil {
		// A ledger write failure only costs future cache hits, never the
		// computed result; log it so they are not lost silently. One line
		// per job: an entry already reported unreadable was left in place,
		// so its write fails for the same reason.
		if err := led.Put(j.Key, j.Name, r.Value); err != nil && readErr == nil {
			p.opt.logf("%v", err)
		}
	}
	return r
}

// emit counts the event into *n and delivers it to hook. Counting and
// delivery share one lock, so Seq values are dense per state and hooks
// may write to a shared sink without locking.
func (p *Pool[T]) emit(hook func(Event), n *int, ev Event) {
	p.hookMu.Lock()
	defer p.hookMu.Unlock()
	*n++
	if hook != nil {
		ev.Seq, ev.Total = *n, p.total
		hook(ev)
	}
}

// Submit enqueues one job without blocking. ctx governs the job's whole
// lifetime: cancelled while queued means the job never starts and done
// receives ctx's error; cancelled mid-run is observed by jobs that
// consult their context. The done callback (may be nil) runs on a worker
// goroutine after the job resolves. Submit fails fast with ErrQueueFull
// when the queue is at capacity and ErrPoolClosed after Shutdown began.
func (p *Pool[T]) Submit(ctx context.Context, j Job[T], done func(Result[T])) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.queue <- poolItem[T]{ctx: ctx, job: j, done: done}:
		p.queued.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueLen reports jobs submitted but not yet picked up by a worker.
func (p *Pool[T]) QueueLen() int { return int(p.queued.Load()) }

// QueueCap reports the bounded queue's capacity.
func (p *Pool[T]) QueueCap() int { return cap(p.queue) }

// Running reports jobs currently executing (or resolving) on workers.
func (p *Pool[T]) Running() int { return int(p.running.Load()) }

// Shutdown stops intake and drains: queued jobs still execute (their own
// contexts permitting — a caller wanting to abandon the queue cancels
// those contexts first), running jobs finish, and every done callback
// fires before Shutdown returns nil. If ctx expires first, Shutdown
// returns its error with workers still draining; callers then cancel the
// outstanding job contexts and call Wait for the workers to unwind.
func (p *Pool[T]) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until every worker has exited. Only meaningful after
// Shutdown initiated the drain.
func (p *Pool[T]) Wait() { p.wg.Wait() }
