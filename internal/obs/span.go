// Package obs is the observability layer of the mining stack: a
// hierarchical span tracer, a metric registry with Prometheus text
// exposition that is the one accumulator of the exec.Observer reporting
// seam, and a slow-operation journal.
//
// The design splits responsibilities so hot paths stay allocation-free
// when observability is off:
//
//   - Spans travel through context.Context. A layer that wants to
//     attribute work opens a child of the ambient span with StartSpan or
//     Phase; when no tracer is attached the same calls are no-ops that
//     return the context unchanged.
//   - A *Span implements exec.Observer, so every stage/counter report a
//     mining layer already makes can be attributed to the active span by
//     fanning the run observer out with exec.Multi — repeated stage ends
//     of the same name aggregate into one child node (calls/total)
//     instead of exploding the tree.
//   - Histograms and counters live in a Registry (metrics.go), fed either
//     directly or through the seam: the Registry implements exec.Observer
//     (seam.go), keeps one instrument per seam name, and is what
//     `partminer -phases`, /v1/stats and /metrics render.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partminer/internal/exec"
)

// Tracer owns one trace: a tree of spans under a single root covering a
// whole run (a mining run, an update fold, an HTTP request). Tracers are
// safe for concurrent span creation and reporting from many goroutines.
type Tracer struct {
	nextID atomic.Uint64
	id     string // trace id, propagated across process boundaries
	root   *Span
}

// NewTracer starts a trace whose root span carries the given name (and,
// typically, a run id). The root is already started and the trace gets a
// fresh process-unique id (see NewTraceID).
func NewTracer(name string) *Tracer {
	return NewTracerID(name, "")
}

// NewTracerID starts a trace under an existing trace id — the worker
// side of a propagated trace adopts the coordinator's id so log lines
// and slow entries from both processes correlate. An empty id mints a
// fresh one.
func NewTracerID(name, id string) *Tracer {
	if id == "" {
		id = NewTraceID()
	}
	t := &Tracer{id: id}
	t.root = &Span{tracer: t, id: t.nextID.Add(1), name: name, start: time.Now()}
	return t
}

// Root returns the trace's root span.
func (t *Tracer) Root() *Span { return t.root }

// Finish ends the root span (children left open keep their last observed
// state; Tree treats an open span as ending now).
func (t *Tracer) Finish() { t.root.End() }

// Span is one node of a trace: a named interval with parent/child links,
// per-span counters, and aggregated sub-stages. The zero value is not
// usable; spans come from Tracer.Root, StartChild, or StartSpan. A nil
// *Span is valid everywhere and does nothing, so call sites need no
// guards when tracing is off.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	calls    int // >1 on aggregated stage children
	counters map[string]int64
	children []*Span
	open     map[string]time.Time // StageStart times awaiting StageEnd
}

// StartChild opens a child span. Safe on a nil receiver (returns nil).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, id: s.tracer.nextID.Add(1), parent: s.id, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Later calls keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Count adds delta to a named per-span counter.
func (s *Span) Count(name string, delta int64) {
	if s == nil || delta == 0 {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// Duration returns the span's length so far (to its end once ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Span implements exec.Observer so a run's reporting seam can be fanned
// into the active span with exec.Multi: counters accumulate on the span,
// and each StageStart/StageEnd pair folds into an *aggregated* child
// span of the stage's name — calls and total duration accumulate instead
// of growing one node per event, which keeps traces of hot stages (e.g.
// per-candidate "merge.verify" ends) bounded.

// StageStart records the stage's start time for timestamp-accurate
// aggregation by the matching StageEnd.
func (s *Span) StageStart(stage string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.open == nil {
		s.open = make(map[string]time.Time)
	}
	s.open[stage] = now
	s.mu.Unlock()
}

// StageEnd folds one completed stage run into the aggregated child span
// of that name. Unmatched ends synthesize their start as end−d.
func (s *Span) StageEnd(stage string, d time.Duration) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	start, ok := s.open[stage]
	if ok {
		delete(s.open, stage)
	} else {
		start = now.Add(-d)
	}
	var agg *Span
	for _, c := range s.children {
		if c.name == stage && c.calls > 0 {
			agg = c
			break
		}
	}
	if agg == nil {
		agg = &Span{tracer: s.tracer, id: s.tracer.nextID.Add(1), parent: s.id, name: stage, start: start}
		s.children = append(s.children, agg)
	}
	s.mu.Unlock()

	agg.mu.Lock()
	agg.calls++
	if start.Before(agg.start) {
		agg.start = start
	}
	if now.After(agg.end) {
		agg.end = now
	}
	agg.counters = addCounter(agg.counters, "total_ns", int64(d))
	agg.mu.Unlock()
}

// Counter adds delta to the span's counter of that name.
func (s *Span) Counter(name string, delta int64) { s.Count(name, delta) }

func addCounter(m map[string]int64, name string, delta int64) map[string]int64 {
	if m == nil {
		m = make(map[string]int64)
	}
	m[name] += delta
	return m
}

// Node is the exported form of one span, ready for JSON encoding: times
// are relative to the trace root's start so trees are stable to diff.
type Node struct {
	ID       uint64           `json:"id"`
	Parent   uint64           `json:"parent,omitempty"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	DurNS    int64            `json:"dur_ns"`
	Calls    int              `json:"calls,omitempty"` // >1: aggregated stage node
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*Node          `json:"children,omitempty"`
}

// Dur returns the node's duration. Aggregated stage nodes report the
// summed stage time (their "total_ns" counter), which under a parallel
// pool can exceed the node's wall-clock window.
func (n *Node) Dur() time.Duration {
	if n.Calls > 1 {
		if total, ok := n.Counters["total_ns"]; ok {
			return time.Duration(total)
		}
	}
	return time.Duration(n.DurNS)
}

// Tree snapshots the whole trace as an exported node tree. Open spans
// are reported as running up to now. Safe to call while the trace is
// still being written to.
func (t *Tracer) Tree() *Node {
	return t.root.node(t.root.start, time.Now())
}

func (s *Span) node(origin time.Time, now time.Time) *Node {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	n := &Node{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.Sub(origin).Nanoseconds(),
		DurNS:   end.Sub(s.start).Nanoseconds(),
		Calls:   s.calls,
	}
	if len(s.counters) > 0 {
		n.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			n.Counters[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	for _, c := range children {
		n.Children = append(n.Children, c.node(origin, now))
	}
	sort.SliceStable(n.Children, func(i, j int) bool { return n.Children[i].StartNS < n.Children[j].StartNS })
	return n
}

// WriteJSON writes the trace tree as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Tree())
}

// WriteFlame renders the trace as a flame-style text tree: one line per
// span, indented by depth, with duration, share of the root, and a bar.
func (t *Tracer) WriteFlame(w io.Writer) {
	root := t.Tree()
	total := root.Dur()
	if total <= 0 {
		total = 1
	}
	writeFlameNode(w, root, 0, total)
}

const flameBarWidth = 24

func writeFlameNode(w io.Writer, n *Node, depth int, total time.Duration) {
	d := n.Dur()
	frac := float64(d) / float64(total)
	bar := int(frac*flameBarWidth + 0.5)
	if bar > flameBarWidth {
		bar = flameBarWidth
	}
	label := n.Name
	if n.Calls > 1 {
		label = fmt.Sprintf("%s (x%d)", n.Name, n.Calls)
	}
	fmt.Fprintf(w, "%-*s %10v %6.1f%% %s\n",
		40-2*depth, strings.Repeat("  ", depth)+label, d.Round(time.Microsecond), frac*100,
		strings.Repeat("█", bar))
	for _, c := range n.Children {
		writeFlameNode(w, c, depth+1, total)
	}
}

// ---- context plumbing ----

type spanKey struct{}

// WithSpan returns a context carrying s as the active span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's active span, or nil when the run is not
// being traced.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a
// context carrying it. With no active span it returns ctx unchanged and
// a nil span — the whole call costs one context value lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return WithSpan(ctx, child), child
}

// Phase opens one named phase on both observability channels at once: a
// child span of ctx's active span (carried by the returned context) and
// a stage report to o. done ends both. This is the helper the mining
// layers put at every phase boundary; with tracing off and a nil
// observer it degrades to (almost) nothing.
func Phase(ctx context.Context, o exec.Observer, name string) (_ context.Context, done func()) {
	endStage := exec.StageTimer(o, name)
	ctx, span := StartSpan(ctx, name)
	if span == nil {
		return ctx, endStage
	}
	return ctx, func() {
		span.End()
		endStage()
	}
}

// ObserverInContext merges o with ctx's active span (spans implement
// exec.Observer) and installs the result as the context's ambient
// observer (exec.ObserverFrom), so layers reached only through a
// context — the unit miners behind core.IndexedUnitMiner — can report stages
// and counters attributed to the right span.
func ObserverInContext(ctx context.Context, o exec.Observer) context.Context {
	if sp := SpanFrom(ctx); sp != nil {
		o = exec.Multi(o, sp)
	}
	if o == nil {
		return ctx
	}
	return exec.WithObserver(ctx, o)
}
