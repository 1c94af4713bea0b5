// Package exec is the shared execution substrate of the mining stack:
// cooperative cancellation, bounded scheduling, and the instrumentation
// seam. It imports no other package of this module.
//
// The paper stresses that "PartMiner is inherently parallel in nature"
// (§1, §5.1.3); this package turns that observation into one mechanism
// instead of scattered ad-hoc goroutines. The pieces:
//
//   - Ticker amortizes context.Context cancellation polling so the
//     recursive hot loops of the miners (gspan, gaston, mergejoin,
//     isomorph) can check for cancellation every iteration at the cost
//     of one atomic increment, with a real channel poll only every
//     tickInterval hits.
//   - Pool is a bounded worker pool (default GOMAXPROCS) that schedules
//     both Phase-2a unit mining and merge-join candidate verification.
//     One pool per mining run bounds the whole run's concurrency, where
//     the previous goroutine-per-unit loop and per-merge worker count
//     could multiply.
//   - Observer (observer.go) is the instrumentation hook interface the
//     layers report stages and counters into. The package only carries
//     events; they are accumulated once, by obs.Registry, which
//     `partminer -phases`, /v1/stats and /metrics all render.
//   - ErrCap and Cache (errcap.go, cache.go) bound what a long run keeps:
//     recorded errors, and memoized values.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// tickInterval is how many Hit calls elapse between real context polls.
// A power of two so the amortized check is a mask, not a division.
const tickInterval = 1 << 10

// Ticker amortizes cancellation checks over a hot loop. A nil *Ticker is
// valid and never fires, so call sites need no nil guards and the
// uninstrumented path costs one pointer test. Tickers are safe for
// concurrent use; once a cancellation is observed every subsequent Hit
// returns true immediately.
type Ticker struct {
	ctx  context.Context
	n    atomic.Uint64
	done atomic.Bool
}

// NewTicker returns a ticker polling ctx, or nil when ctx can never be
// cancelled (nil or context.Background-like), which disables all checks
// for free.
func NewTicker(ctx context.Context) *Ticker {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &Ticker{ctx: ctx}
}

// Hit reports whether the context has been cancelled. All but every
// tickInterval-th call return on an atomic increment alone.
func (t *Ticker) Hit() bool {
	if t == nil {
		return false
	}
	if t.done.Load() {
		return true
	}
	if t.n.Add(1)%tickInterval != 0 {
		return false
	}
	select {
	case <-t.ctx.Done():
		t.done.Store(true)
		return true
	default:
		return false
	}
}

// Err returns the context error once a cancellation has been observed
// (by Hit or by this call), else nil.
func (t *Ticker) Err() error {
	if t == nil {
		return nil
	}
	if t.done.Load() {
		return t.ctx.Err()
	}
	if err := t.ctx.Err(); err != nil {
		t.done.Store(true)
		return err
	}
	return nil
}

// Pool bounds the concurrency of a mining run. All Map calls on the same
// pool share its worker budget, so nested phases cannot multiply
// goroutines the way independent per-phase knobs could. The zero Pool is
// not usable; construct with NewPool.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool running at most workers tasks at once;
// workers < 1 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Serial returns a single-worker pool: Map degrades to an in-order loop
// (no goroutines), which keeps serial runs exactly serial.
func Serial() *Pool { return &Pool{sem: make(chan struct{}, 1)} }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Map runs f(0) … f(n-1) with at most Workers() of them in flight at a
// time, blocking until all launched tasks finish. Once ctx is cancelled
// no further tasks start and Map returns ctx.Err(); tasks already
// running are expected to observe ctx themselves (via a Ticker) and are
// always waited for, so no f outlives Map. Tasks must not call Map on
// the same pool (the worker budget they hold would deadlock the inner
// call).
func (p *Pool) Map(ctx context.Context, n int, f func(i int)) error {
	return p.MapCtx(ctx, n, func(_ context.Context, i int) { f(i) })
}

// MapCtx is Map with the scheduling context handed to each task, so work
// that must propagate context values (the active trace span, the ambient
// observer) into pooled goroutines has an explicit path for it. The
// context each task receives is the one Map was called with — tasks that
// derive their own (e.g. to attach a per-task span) do so inside f.
func (p *Pool) MapCtx(ctx context.Context, n int, f func(ctx context.Context, i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Workers() == 1 {
		// Fast path: no goroutines, checking ctx between items.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(ctx, i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	done := ctx.Done()
	for i := 0; i < n; i++ {
		// Explicit pre-check: select chooses randomly when both a worker
		// slot and cancellation are ready.
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return err
		}
		select {
		case <-done:
			wg.Wait()
			return ctx.Err()
		case p.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-p.sem; wg.Done() }()
			f(ctx, i)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// MapOrderedCtx is MapCtx with an explicit submission order: tasks are
// handed to workers in the sequence order[0], order[1], …, so a caller
// that knows the expensive tasks (the skew-aware unit scheduler) can
// start them first instead of last — with fewer workers than tasks, the
// slowest task's start time bounds the whole phase's wall clock. order
// must be a permutation of 0..n-1; nil degrades to index order. Results
// must not depend on execution order (every Map caller here writes
// disjoint slots), so serial pools stay deterministic: they simply run
// the tasks in the given sequence.
func (p *Pool) MapOrderedCtx(ctx context.Context, n int, order []int, f func(ctx context.Context, i int)) error {
	if order == nil {
		return p.MapCtx(ctx, n, f)
	}
	if len(order) != n {
		return fmt.Errorf("exec: MapOrderedCtx order has %d entries for %d tasks", len(order), n)
	}
	return p.MapCtx(ctx, n, func(tctx context.Context, j int) { f(tctx, order[j]) })
}
