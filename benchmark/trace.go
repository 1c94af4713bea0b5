package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it ran, the span
// that caused it, and the ladder repetition both belong to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: run, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].duration()
}

// closed records a span that has already ended d ago-to-now, the form in
// which exec.Observer reports a stage.
func (t *tracer) closed(name string, parent, run int, d time.Duration) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: run, Name: name, Start: now - d, End: now})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (pooled units, a stage nested inside another stage of the same call),
// so the cover is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var cover time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				cover += to - from
				edge = to
			}
		}
		out[i] = s.duration() - cover
	}
	return out
}

// write stores the spans with their self times, plus per-name totals, as
// one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type outSpan struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	type total struct {
		Calls int           `json:"calls"`
		Total time.Duration `json:"total_ns"`
		Self  time.Duration `json:"self_ns"`
	}
	doc := struct {
		Spans  []outSpan        `json:"spans"`
		ByName map[string]total `json:"by_name"`
	}{ByName: make(map[string]total)}
	for i, s := range spans {
		doc.Spans = append(doc.Spans, outSpan{s, self[i]})
		tt := doc.ByName[s.Name]
		tt.Calls++
		tt.Total += s.duration()
		tt.Self += self[i]
		doc.ByName[s.Name] = tt
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageObserver is the harness's exec.Observer: handed to the program
// through Options.Observer and server.Config.Observer, it turns every
// reported stage into a child span of whatever call the ladder is making
// and sums stage time for the per-layer metrics.
type stageObserver struct {
	tr *tracer

	mu     sync.Mutex
	parent int
	run    int
	kept   map[string]int // spans recorded per stage name under the current parent
	totals map[string]time.Duration
}

// spansPerStage caps the spans kept per stage name and call: merge.verify
// and vf2.match fire thousands of times per mine, and their total is what
// the metrics use.
const spansPerStage = 16

func newStageObserver(tr *tracer) *stageObserver {
	o := &stageObserver{tr: tr}
	o.under(-1, 0)
	return o
}

// under re-parents subsequent stages and resets the sums.
func (o *stageObserver) under(parent, run int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.parent, o.run = parent, run
	o.kept = make(map[string]int)
	o.totals = make(map[string]time.Duration)
}

func (o *stageObserver) StageStart(string) {}

func (o *stageObserver) StageEnd(stage string, d time.Duration) {
	o.mu.Lock()
	o.totals[stage] += d
	o.kept[stage]++
	keep, parent, run := o.kept[stage] <= spansPerStage, o.parent, o.run
	o.mu.Unlock()
	if keep {
		o.tr.closed(stage, parent, run, d)
	}
}

// Counter is ignored: the counts the metrics use come from mergejoin.Stats
// and /v1/stats.
func (o *stageObserver) Counter(string, int64) {}

func (o *stageObserver) total(stage string) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.totals[stage]
}
