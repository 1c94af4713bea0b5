package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolMapRunsEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		p := NewPool(workers)
		n := 100
		hit := make([]atomic.Int32, n)
		if err := p.MapCtx(context.Background(), n, func(_ context.Context, i int) { hit[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hit {
			if got := hit[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var cur, peak atomic.Int32
	err := p.MapCtx(context.Background(), 50, func(context.Context, int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", got, workers)
	}
}

func TestPoolMapCancelledStopsScheduling(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	const n = 1000
	err := p.MapCtx(ctx, n, func(context.Context, int) {
		if ran.Add(1) == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == n {
		t.Fatal("cancellation did not stop scheduling")
	}
}

func TestPoolMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Pool{Serial(), NewPool(4)} {
		ran := false
		if err := p.MapCtx(ctx, 10, func(context.Context, int) { ran = true }); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran {
			t.Fatal("task ran under a pre-cancelled context")
		}
	}
}

func TestSerialPoolRunsInOrder(t *testing.T) {
	p := Serial()
	var order []int
	if err := p.MapCtx(context.Background(), 10, func(_ context.Context, i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial pool ran out of order: %v", order)
		}
	}
}

func TestPoolSharedBudgetAcrossMaps(t *testing.T) {
	p := NewPool(2)
	var cur, peak atomic.Int32
	task := func(context.Context, int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.MapCtx(context.Background(), 20, task) //nolint:errcheck
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("concurrent Maps exceeded shared budget: peak %d", got)
	}
}

func TestTickerNilNeverFires(t *testing.T) {
	var tick *Ticker
	for i := 0; i < 10*tickInterval; i++ {
		if tick.Hit() {
			t.Fatal("nil ticker fired")
		}
	}
	if tick.Err() != nil {
		t.Fatal("nil ticker reported an error")
	}
	if NewTicker(context.Background()) != nil {
		t.Fatal("NewTicker should elide un-cancellable contexts")
	}
}

func TestTickerFiresAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tick := NewTicker(ctx)
	for i := 0; i < 2*tickInterval; i++ {
		if tick.Hit() {
			t.Fatal("ticker fired before cancellation")
		}
	}
	cancel()
	fired := false
	for i := 0; i < 2*tickInterval; i++ {
		if tick.Hit() {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("ticker never fired after cancellation")
	}
	if !tick.Hit() {
		t.Fatal("ticker should latch once fired")
	}
	if tick.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", tick.Err())
	}
}

func TestTickerErrDetectsCancelDirectly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tick := NewTicker(ctx)
	cancel()
	if tick.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", tick.Err())
	}
}

// recorder is the tests' Observer: it sums stage time and counters by
// name. (The module's aggregating observer, obs.Registry, imports this
// package.)
type recorder struct {
	mu       sync.Mutex
	stages   map[string]time.Duration
	counters map[string]int64
}

func (r *recorder) StageStart(string) {}

func (r *recorder) StageEnd(stage string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stages == nil {
		r.stages = make(map[string]time.Duration)
	}
	r.stages[stage] += d
}

func (r *recorder) Counter(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
}

func TestMultiObserver(t *testing.T) {
	var a, b recorder
	m := Multi(&a, nil, &b)
	m.StageStart("s")
	m.StageEnd("s", time.Millisecond)
	m.Counter("c", 2)
	for _, r := range []*recorder{&a, &b} {
		if r.counters["c"] != 2 || r.stages["s"] != time.Millisecond {
			t.Fatalf("observer missed events: %+v %+v", r.stages, r.counters)
		}
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should be nil")
	}
	if Multi(&a) != Observer(&a) {
		t.Fatal("Multi of one should return it unwrapped")
	}
}
