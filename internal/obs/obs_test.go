package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"partminer/internal/exec"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer("run")
	child := tr.Root().StartChild("partition")
	child.Count("graphs", 60)
	child.End()
	tr.Finish()

	root := tr.Tree()
	if root.Name != "run" || len(root.Children) != 1 {
		t.Fatalf("tree = %+v", root)
	}
	c := root.Children[0]
	if c.Name != "partition" || c.Parent != root.ID || c.Counters["graphs"] != 60 {
		t.Fatalf("child = %+v", c)
	}
	if c.StartNS < 0 || c.DurNS < 0 {
		t.Fatalf("negative child times: %+v", c)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	if s.StartChild("x") != nil {
		t.Fatal("nil span spawned a child")
	}
	s.End()
	s.Count("c", 1)
	s.StageStart("s")
	s.StageEnd("s", time.Millisecond)
	s.Counter("c", 1)
	if s.Duration() != 0 {
		t.Fatal("nil span has a duration")
	}
}

func TestSpanStageAggregation(t *testing.T) {
	tr := NewTracer("run")
	root := tr.Root()
	// Three ends of the same stage must fold into ONE aggregated child.
	root.StageStart("merge.verify")
	root.StageEnd("merge.verify", 2*time.Millisecond)
	root.StageEnd("merge.verify", 3*time.Millisecond) // unmatched: start synthesized
	root.StageEnd("merge.verify", 5*time.Millisecond)
	tr.Finish()

	tree := tr.Tree()
	if len(tree.Children) != 1 {
		t.Fatalf("aggregation failed: %d children", len(tree.Children))
	}
	agg := tree.Children[0]
	if agg.Calls != 3 {
		t.Fatalf("calls = %d, want 3", agg.Calls)
	}
	if got := agg.Counters["total_ns"]; got != int64(10*time.Millisecond) {
		t.Fatalf("total_ns = %d, want 10ms", got)
	}
	// Dur() on an aggregated node reports the summed stage time.
	if agg.Dur() != 10*time.Millisecond {
		t.Fatalf("Dur = %v, want 10ms", agg.Dur())
	}
}

func TestStartSpanWithoutTracer(t *testing.T) {
	ctx := context.Background()
	got, span := StartSpan(ctx, "x")
	if got != ctx || span != nil {
		t.Fatal("StartSpan without a tracer must be a no-op")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
}

func TestPhaseBothChannels(t *testing.T) {
	tr := NewTracer("run")
	ctx := WithSpan(context.Background(), tr.Root())
	c := NewRegistry("")
	pctx, done := Phase(ctx, c, "units")
	if SpanFrom(pctx) == SpanFrom(ctx) {
		t.Fatal("Phase did not push a child span")
	}
	done()
	tr.Finish()
	if stages := c.View().Stages; stages[0].Stage != "units" || stages[0].Calls != 1 {
		t.Fatalf("observer missed the phase: %+v", stages)
	}
	if tr.Tree().Children[0].Name != "units" {
		t.Fatalf("trace missed the phase: %+v", tr.Tree())
	}
}

func TestObserverInContext(t *testing.T) {
	// No span, nil observer: context unchanged, and crucially no
	// typed-nil (*Span)(nil) smuggled in as a non-nil exec.Observer.
	ctx := context.Background()
	if got := ObserverInContext(ctx, nil); got != ctx {
		t.Fatal("nil-everything should return ctx unchanged")
	}
	// Span present: the ambient observer must reach both the span and
	// the explicit observer.
	tr := NewTracer("run")
	c := NewRegistry("")
	ctx = ObserverInContext(WithSpan(ctx, tr.Root()), c)
	o := exec.ObserverFrom(ctx)
	if o == nil {
		t.Fatal("no ambient observer installed")
	}
	o.StageEnd("gspan.grow", time.Millisecond)
	if c.View().Stage("gspan.grow").Total != time.Millisecond {
		t.Fatal("explicit observer missed the report")
	}
	if len(tr.Tree().Children) != 1 || tr.Tree().Children[0].Name != "gspan.grow" {
		t.Fatalf("span missed the report: %+v", tr.Tree())
	}
}

func TestTracerRenderers(t *testing.T) {
	tr := NewTracer("run")
	tr.Root().StartChild("partition").End()
	tr.Finish()
	var jsonBuf, flameBuf strings.Builder
	if err := tr.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"name": "partition"`) {
		t.Fatalf("JSON tree lacks the child: %s", jsonBuf.String())
	}
	tr.WriteFlame(&flameBuf)
	if !strings.Contains(flameBuf.String(), "partition") {
		t.Fatalf("flame render lacks the child: %s", flameBuf.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // bucket (1,2]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 149.9 || got > 150.1 {
		t.Fatalf("sum = %v, want 150", got)
	}
	// All mass in (1,2]: the median interpolates inside that bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	// Overflow observations clamp to the last bound.
	h.Observe(100)
	if q := h.Quantile(0.999); q != 8 {
		t.Fatalf("overflow quantile = %v, want 8", q)
	}
	d := h.Quantiles()
	if d.Count != 101 || d.P50 <= 0 || d.P99 <= 0 {
		t.Fatalf("digest = %+v", d)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry("")
	h := r.Histogram("test_seconds", "A histogram.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9) // +Inf bucket
	v := r.HistogramVec("test_vec_seconds", "A labeled histogram.", "endpoint", []float64{1})
	v.With("stats").Observe(0.5)
	c := r.RegisterCounter("test_total", "A counter.")
	c.Add(7)
	r.GaugeFunc("test_gauge", "A gauge.", func() float64 { return 2.5 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_seconds A histogram.",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="1"} 1`,
		`test_seconds_bucket{le="2"} 2`, // cumulative
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_count 3",
		`test_vec_seconds_bucket{endpoint="stats",le="1"} 1`,
		`test_vec_seconds_count{endpoint="stats"} 1`,
		"test_total 7",
		"test_gauge 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}

	// Registration is idempotent: same name, same instrument.
	if r.RegisterCounter("test_total", "dup") != c {
		t.Fatal("re-registration returned a different counter")
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("handler wrote nothing")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"merge.sig_pruned": "merge_sig_pruned",
		"unit.0":           "unit_0",
		"9lives":           "_lives", // leading digit is illegal
		"ok_name":          "ok_name",
	} {
		if got := SanitizeName(in); got != want {
			t.Fatalf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	if l.Record(SlowEntry{Kind: "http", Duration: 5 * time.Millisecond}) {
		t.Fatal("below-threshold entry kept")
	}
	for i := 1; i <= 5; i++ {
		if !l.Record(SlowEntry{Kind: "http", Detail: string(rune('a' + i - 1)), Duration: time.Duration(i) * 20 * time.Millisecond}) {
			t.Fatalf("entry %d dropped", i)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("ring kept %d entries, want 3", len(got))
	}
	// Newest first: e, d, c survive.
	if got[0].Detail != "e" || got[1].Detail != "d" || got[2].Detail != "c" {
		t.Fatalf("order = %q %q %q", got[0].Detail, got[1].Detail, got[2].Detail)
	}
	if got[0].Time.IsZero() {
		t.Fatal("Record did not stamp the entry time")
	}
}

func TestSlowLogDisabledAndNil(t *testing.T) {
	var nilLog *SlowLog
	if nilLog.Record(SlowEntry{Duration: time.Hour}) || nilLog.Total() != 0 || nilLog.Entries() != nil || nilLog.Threshold() != 0 {
		t.Fatal("nil slow log misbehaved")
	}
	off := NewSlowLog(4, 0)
	if off.Record(SlowEntry{Duration: time.Hour}) {
		t.Fatal("zero threshold must record nothing")
	}
}
