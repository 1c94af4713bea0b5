package exec

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageTimerNilObserver(t *testing.T) {
	end := StageTimer(nil, "s") // must not panic
	end()
	Count(nil, "c", 3) // likewise
	var m Observer = Multi(nil)
	if m != nil {
		t.Fatal("Multi() of nothing should be nil")
	}
}

func TestStageTimerReportsElapsed(t *testing.T) {
	var c recorder
	end := StageTimer(&c, "s")
	time.Sleep(2 * time.Millisecond)
	end()
	if got := c.stages["s"]; got < time.Millisecond {
		t.Fatalf("stage total = %v, want >= 1ms", got)
	}
}

func TestObserverContextRoundTrip(t *testing.T) {
	if ObserverFrom(context.Background()) != nil {
		t.Fatal("empty context should carry no observer")
	}
	var c recorder
	ctx := WithObserver(context.Background(), &c)
	if ObserverFrom(ctx) != Observer(&c) {
		t.Fatal("observer did not round-trip through the context")
	}
	// Installing nil is a no-op, preserving any outer observer.
	if ObserverFrom(WithObserver(ctx, nil)) != Observer(&c) {
		t.Fatal("WithObserver(nil) clobbered the ambient observer")
	}
}

func TestMapCtxPassesContext(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		var ok, ran atomic.Int64
		err := pool.MapCtx(ctx, 16, func(tctx context.Context, i int) {
			ran.Add(1)
			if tctx.Value(key{}) == "v" {
				ok.Add(1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 16 || ok.Load() != 16 {
			t.Fatalf("workers=%d: ran=%d ok=%d, want 16/16", workers, ran.Load(), ok.Load())
		}
	}
}
