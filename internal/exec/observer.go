package exec

import (
	"context"
	"time"
)

// Observer receives execution events from the mining layers: stage
// lifecycle (partitioning, each unit, each merge) and named counters
// (candidate/verification work, RPC traffic, degradations). Observers
// must be safe for concurrent use; parallel runs report from many
// goroutines. A nil Observer is tolerated by every reporting helper.
type Observer interface {
	// StageStart marks the beginning of a named stage.
	StageStart(stage string)
	// StageEnd marks the end of a stage with its wall-clock duration.
	StageEnd(stage string, d time.Duration)
	// Counter adds delta to a named counter.
	Counter(name string, delta int64)
}

// StageTimer reports a stage start to o and returns the closure that
// ends it:
//
//	defer exec.StageTimer(obs, "merge")()
//
// A nil observer yields a no-op closure.
func StageTimer(o Observer, stage string) func() {
	if o == nil {
		return func() {}
	}
	o.StageStart(stage)
	t0 := time.Now()
	return func() { o.StageEnd(stage, time.Since(t0)) }
}

// Count adds delta to counter name on o; nil-safe, skips zero deltas.
func Count(o Observer, name string, delta int64) {
	if o == nil || delta == 0 {
		return
	}
	o.Counter(name, delta)
}

// Multi fans every event out to all non-nil observers.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) StageStart(stage string) {
	for _, o := range m {
		o.StageStart(stage)
	}
}

func (m multiObserver) StageEnd(stage string, d time.Duration) {
	for _, o := range m {
		o.StageEnd(stage, d)
	}
}

func (m multiObserver) Counter(name string, delta int64) {
	for _, o := range m {
		o.Counter(name, delta)
	}
}

type observerKey struct{}

// WithObserver returns a context carrying o as the ambient observer for
// layers that are reached only through a context (the unit miners behind
// core.Options.UnitMinerIndexed). A nil o returns ctx unchanged.
func WithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerKey{}, o)
}

// ObserverFrom returns the context's ambient observer, or nil.
func ObserverFrom(ctx context.Context) Observer {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}
