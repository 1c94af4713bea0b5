package obs

// metrics.go: fixed-bucket histograms, counters, and gauges in a
// Registry that renders Prometheus text exposition (format 0.0.4) — on
// the standard library alone, expvar-style. All instruments are safe for
// concurrent use; observation paths are lock-free (atomics only).

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DurationBuckets is the default latency bucket ladder, in seconds: a
// coarse exponential from 50µs to 30s. It spans VF2 matches (µs) through
// full re-mine folds (seconds) with ~2.5x resolution.
var DurationBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram. Buckets hold cumulative-style
// per-bucket counts internally and are rendered cumulatively (le=...) at
// exposition time.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) from the buckets with
// the usual linear interpolation inside the target bucket; observations
// beyond the last bound clamp to it. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // clamp the +Inf bucket
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Quantiles is the p50/p95/p99 digest of a histogram, the form /v1/stats
// embeds.
type Quantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Quantiles digests the histogram.
func (h *Histogram) Quantiles() Quantiles {
	return Quantiles{Count: h.Count(), P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// metric is one exposition family. Exactly one of the instrument fields
// is set; Gather (federate.go) switches on them to snapshot the family.
type metric struct {
	name, help, typ string
	hist            *Histogram    // set for plain histogram families
	vec             *HistogramVec // set for labeled histogram families
	counter         *Counter      // set for counter families
	gaugeFn         func() float64
}

// Registry holds named metric families and renders them in registration
// order. Names must match Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*);
// registering a name twice returns the existing instrument, so wiring
// code can be idempotent.
type Registry struct {
	// prefix starts every family name the registry derives itself (the
	// observer-seam series, the partition-quality gauges); explicit
	// registrations spell their names out.
	prefix string

	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
	hooks   []func(io.Writer)

	// The observer seam (seam.go): one histogram per stage name, one
	// counter per counter name.
	stages   seamTable[Histogram]
	counters seamTable[Counter]
}

// NewRegistry returns an empty registry whose derived family names start
// with prefix ("partserve_").
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, byName: make(map[string]*metric)}
}

// register adds family m under name, or returns the family already there.
func (r *Registry) register(name, help, typ string, m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		return old
	}
	m.name, m.help, m.typ = name, help, typ
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Histogram registers (or returns) an unlabeled histogram family. A nil
// buckets slice selects DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", &metric{hist: newHistogram(buckets)}).hist
}

// HistogramVec registers (or returns) a histogram family keyed by one
// label (e.g. endpoint). Children are created on first use.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{label: label, buckets: buckets, children: make(map[string]*Histogram)}
	return r.register(name, help, "histogram", &metric{vec: v}).vec
}

// RegisterCounter registers (or returns) a counter family. (Counter, the
// name its siblings would suggest, is the exec.Observer method.)
func (r *Registry) RegisterCounter(name, help string) *Counter {
	return r.register(name, help, "counter", &metric{counter: new(Counter)}).counter
}

// GaugeFunc registers a gauge whose value is read at exposition time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", &metric{gaugeFn: f})
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct {
	label    string
	buckets  []float64
	mu       sync.RWMutex
	order    []string
	children map[string]*Histogram
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[value]; ok {
		return h
	}
	h = newHistogram(v.buckets)
	v.children[value] = h
	v.order = append(v.order, value)
	return h
}

// Children returns the label values with registered children, in first-
// use order.
func (v *HistogramVec) Children() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.order))
	copy(out, v.order)
	return out
}

// formatFloat renders a sample value; whole numbers (counters, epochs)
// print as integers rather than in %g's exponent form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OnScrape registers a hook appended to every exposition after the
// registered families — the seam federation uses to render series whose
// state lives outside the registry (e.g. per-worker samples cached on
// the cluster coordinator).
func (r *Registry) OnScrape(f func(io.Writer)) {
	if f == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// WritePrometheus renders what Gather snapshots — every registered
// family, in registration order, then the families derived from the
// observer seam — as Prometheus text exposition format 0.0.4, then runs
// the OnScrape hooks.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	hooks := r.hooks // entries, once appended, never change
	r.mu.Unlock()
	family := ""
	for _, sm := range r.Gather() {
		if sm.Name != family { // the children of a vec share one declaration
			family = sm.Name
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", sm.Name, sm.Help, sm.Name, sm.Type)
		}
		WriteSampleSeries(w, sm.Name, "", sm)
	}
	for _, f := range hooks {
		f(w)
	}
}

// Handler serves the registry as a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// SanitizeName maps a dotted observer-seam name ("merge.sig_pruned") to
// a Prometheus-legal metric name fragment ("merge_sig_pruned").
func SanitizeName(name string) string {
	b := []byte(name)
	for i, c := range b {
		legal := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !legal {
			b[i] = '_'
		}
	}
	return string(b)
}
