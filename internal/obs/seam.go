package obs

// seam.go: the Registry as the accumulator of the exec.Observer seam. A
// stage end lands in a histogram and a counter delta in a counter, both
// keyed by the seam name the layer reported ("merge.verify", "plan.hit",
// "unit.3"). Nothing else in the module sums these events: `partminer
// -phases`/`-statsjson` and /v1/stats render View, /metrics renders the
// same instruments under the names seriesName derives.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partminer/internal/exec"
	"partminer/internal/partition"
)

var _ exec.Observer = (*Registry)(nil)

// seamTable holds the instruments of one kind by seam name. A lookup is
// a map read off an atomic pointer; only the first use of a name takes
// the registry's mutex, to publish a copy of the map with the name added.
type seamTable[T any] struct {
	m     atomic.Pointer[map[string]*T]
	order []string // names in first-use order; guarded by the registry's mu
}

func (t *seamTable[T]) get(mu *sync.Mutex, name string, mk func() *T) *T {
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[name]; ok {
			return v
		}
	}
	mu.Lock()
	defer mu.Unlock()
	next := make(map[string]*T)
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[name]; ok {
			return v
		}
		for k, v := range *m {
			next[k] = v
		}
	}
	v := mk()
	next[name] = v
	t.m.Store(&next)
	t.order = append(t.order, name)
	return v
}

// each calls f for every instrument, in first-use order.
func (t *seamTable[T]) each(mu *sync.Mutex, f func(name string, v *T)) {
	mu.Lock()
	order, m := t.order, t.m.Load() // order's entries never change; m is nil only with none
	mu.Unlock()
	for _, name := range order {
		f(name, (*m)[name])
	}
}

func (r *Registry) stage(name string) *Histogram {
	return r.stages.get(&r.mu, name, func() *Histogram { return newHistogram(nil) })
}

// StageStart registers the stage, so that View lists stages in the order
// they first started. Like every exec.Observer method of the Registry it
// is safe on a nil receiver: a nil *Registry inside an exec.Observer
// cannot crash a run.
func (r *Registry) StageStart(stage string) {
	if r != nil {
		r.stage(stage)
	}
}

// StageEnd records one completed run of a stage.
func (r *Registry) StageEnd(stage string, d time.Duration) {
	if r != nil {
		r.stage(stage).ObserveDuration(d)
	}
}

// Counter adds delta to a named seam counter.
func (r *Registry) Counter(name string, delta int64) {
	if r != nil {
		r.counters.get(&r.mu, name, func() *Counter { return new(Counter) }).Add(delta)
	}
}

// seriesName derives the exposition family name of a seam event: the
// registry prefix, the seam name with dots as underscores, and the unit
// ("seconds" for a stage, "total" for a counter). The one entry that is
// not mechanical: the per-unit stages "unit.<i>" share the family
// <prefix>unit_mine_seconds, so the series does not multiply with K.
func seriesName(prefix, seam, unit string) string {
	if i, ok := strings.CutPrefix(seam, "unit."); ok && unit == "seconds" && strings.Trim(i, "0123456789") == "" {
		seam = "unit_mine"
	}
	return prefix + SanitizeName(seam) + "_" + unit
}

// seamSamples snapshots the seam instruments as exposition families:
// stage histograms — stages that share a family name summed into one —
// then counters.
func (r *Registry) seamSamples() []Sample {
	var out []Sample
	at := make(map[string]int) // stage family name -> index in out
	r.stages.each(&r.mu, func(name string, h *Histogram) {
		fam := seriesName(r.prefix, name, "seconds")
		i, ok := at[fam]
		if !ok {
			i, at[fam] = len(out), len(out)
			out = append(out, Sample{Name: fam, Type: "histogram", Help: "Observer-seam stage " + name + ".",
				Bounds: h.bounds, Counts: make([]uint64, len(h.counts))})
		}
		for b := range h.counts {
			out[i].Counts[b] += h.counts[b].Load()
		}
		out[i].Sum += h.Sum()
		out[i].Count += h.Count()
	})
	r.counters.each(&r.mu, func(name string, c *Counter) {
		out = append(out, Sample{Name: seriesName(r.prefix, name, "total"), Type: "counter",
			Help: "Observer-seam counter " + name + ".", Value: float64(c.Value())})
	})
	return out
}

// StageStat is every completed run of one stage name.
type StageStat struct {
	Stage string `json:"stage"`
	Calls int    `json:"calls"`
	// Total is the summed wall-clock duration across calls
	// (JSON-encoded as nanoseconds).
	Total time.Duration `json:"total_ns"`
}

// View is the seam's state by seam name: the per-phase stage breakdown
// the paper's §5 evaluation reports (partition / unit mining at sup/k /
// merge-join) plus every named counter, in one JSON-serializable struct.
type View struct {
	Stages   []StageStat      `json:"stages,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	// Partition is the partition quality of the mining round the view is
	// rendered for. The registry does not hold it — the caller copies it
	// from the round's Result.
	Partition *partition.Quality `json:"partition,omitempty"`
}

// View snapshots the seam: stages in first-start order, counters as a
// fresh map. A nil registry yields an empty view.
func (r *Registry) View() View {
	v := View{Counters: make(map[string]int64)}
	if r == nil {
		return v
	}
	r.stages.each(&r.mu, func(name string, h *Histogram) {
		total := time.Duration(math.Round(h.Sum() * float64(time.Second)))
		v.Stages = append(v.Stages, StageStat{Stage: name, Calls: int(h.Count()), Total: total})
	})
	r.counters.each(&r.mu, func(name string, c *Counter) { v.Counters[name] = c.Value() })
	return v
}

// Stage returns the stat of one stage name (zero when never reported).
func (v View) Stage(name string) StageStat {
	for _, st := range v.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageStat{Stage: name}
}

// String renders the view as the fixed-width per-phase table the paper's
// §5 reports, followed by the counters sorted by name.
func (v View) String() string {
	var b strings.Builder
	width := len("stage")
	for _, st := range v.Stages {
		width = max(width, len(st.Stage))
	}
	if len(v.Stages) > 0 {
		fmt.Fprintf(&b, "%-*s  %6s  %12s\n", width, "stage", "calls", "total")
	}
	for _, st := range v.Stages {
		fmt.Fprintf(&b, "%-*s  %6d  %12v\n", width, st.Stage, st.Calls, st.Total.Round(time.Microsecond))
	}
	names := make([]string, 0, len(v.Counters))
	for name := range v.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter %s = %d\n", name, v.Counters[name])
	}
	if q := v.Partition; q != nil {
		name := q.Strategy
		if name == "" {
			name = "custom"
		}
		fmt.Fprintf(&b, "partition %s k=%d edge_cut=%.3f replication=%.3f balance=%.3f\n",
			name, q.K, q.EdgeCutRatio, q.ReplicationFactor, q.Balance)
	}
	return b.String()
}
