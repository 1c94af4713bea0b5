package obs

// federate.go: metrics federation. A worker process snapshots its whole
// Registry as a []Sample — plain exported-field structs that ride
// encoding/gob over net/rpc (piggybacked on cluster heartbeats) — and
// the coordinator re-renders them on its own /metrics under a federated
// family name with a worker label. OnScrape is the seam the serving
// layer uses to append those federated series to an exposition without
// the registry knowing about the cluster.

import (
	"fmt"
	"io"
)

// Sample is one metric series captured at a point in time, in a form
// that survives gob encoding: counters and gauges carry Value, histogram
// samples carry the bucket layout (Bounds, per-bucket Counts with the
// trailing +Inf bucket last) plus Sum/Count. Vec children carry their
// label pair.
type Sample struct {
	Name       string
	Type       string // "counter", "gauge", or "histogram"
	Help       string
	Value      float64   // counter/gauge reading
	Bounds     []float64 // histogram upper bounds, ascending
	Counts     []uint64  // per-bucket counts, len(Bounds)+1 (+Inf last)
	Sum        float64
	Count      uint64
	Label      string // set on HistogramVec children
	LabelValue string
}

// Gather snapshots every registered family as samples, in registration
// order (vec families contribute one sample per child), then the
// families derived from the observer seam. The snapshot is not atomic
// across instruments — same as a scrape.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	families := r.ordered // entries, once appended, never change
	r.mu.Unlock()

	var out []Sample
	for _, m := range families {
		switch {
		case m.hist != nil:
			out = append(out, histSample(m, m.hist, "", ""))
		case m.vec != nil:
			for _, value := range m.vec.Children() {
				out = append(out, histSample(m, m.vec.With(value), m.vec.label, value))
			}
		case m.counter != nil:
			out = append(out, Sample{Name: m.name, Type: m.typ, Help: m.help, Value: float64(m.counter.Value())})
		case m.gaugeFn != nil:
			out = append(out, Sample{Name: m.name, Type: m.typ, Help: m.help, Value: m.gaugeFn()})
		}
	}
	return append(out, r.seamSamples()...)
}

func histSample(m *metric, h *Histogram, label, labelValue string) Sample {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	bounds := make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	return Sample{
		Name: m.name, Type: m.typ, Help: m.help,
		Bounds: bounds, Counts: counts, Sum: h.Sum(), Count: h.Count(),
		Label: label, LabelValue: labelValue,
	}
}

// WriteSampleSeries renders one sample as exposition series under the
// family name fam. labels, when non-empty, is a pre-rendered
// `name="value"` list without braces (the federating side injects e.g.
// `worker="w1"` here); the sample's own vec label, if any, is appended.
// HELP/TYPE lines are the caller's job so a family federated from many
// workers declares them once.
func WriteSampleSeries(w io.Writer, fam, labels string, s Sample) {
	if s.Label != "" {
		child := fmt.Sprintf("%s=%q", s.Label, s.LabelValue)
		if labels != "" {
			labels += "," + child
		} else {
			labels = child
		}
	}
	if s.Type == "histogram" {
		writeHistSeries(w, fam, labels, s.Bounds, s.Counts, s.Sum, s.Count)
		return
	}
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %s\n", fam, labels, formatFloat(s.Value))
	} else {
		fmt.Fprintf(w, "%s %s\n", fam, formatFloat(s.Value))
	}
}

// writeHistSeries renders histogram exposition series from raw bucket
// state — shared by live *Histogram rendering and federated Samples.
func writeHistSeries(w io.Writer, fam, labels string, bounds []float64, counts []uint64, sum float64, count uint64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", fam, labels, sep, formatFloat(bound), cum)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", fam, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", fam, formatFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", fam, count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", fam, labels, formatFloat(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", fam, labels, count)
	}
}
