package obs

// trace_test.go: distributed-trace plumbing — trace ids, the
// Tree → JSON → Graft round trip, graft caps, the flame renderer's
// golden output, federation samples, and SlowLog under concurrency.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("trace ids collided: %s", a)
	}
	for _, id := range []string{a, b} {
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex digits", id)
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("trace id %q has non-hex digit %q", id, c)
			}
		}
	}

	tr := NewTracer("run")
	if tr.ID() == "" {
		t.Fatal("NewTracer minted no id")
	}
	if got := tr.Root().TraceID(); got != tr.ID() {
		t.Fatalf("span trace id %q != tracer id %q", got, tr.ID())
	}
	if got := NewTracerID("worker", "abc123").ID(); got != "abc123" {
		t.Fatalf("NewTracerID dropped the id: %q", got)
	}
	var nilSpan *Span
	if nilSpan.TraceID() != "" {
		t.Fatal("nil span has a trace id")
	}
	var nilTracer *Tracer
	if nilTracer.ID() != "" {
		t.Fatal("nil tracer has a trace id")
	}
}

// TestNodeRoundTripGraft is the wire contract: a remote tracer's tree
// survives EncodeNode → DecodeNode byte-for-byte in structure, and Graft
// splices it into a live local trace with counters, aggregation calls,
// and rebased offsets intact.
func TestNodeRoundTripGraft(t *testing.T) {
	remote := NewTracerID("worker.w1", "deadbeef00000001")
	op := remote.Root().StartChild("mine.unit-0")
	op.Count("patterns", 17)
	op.StageEnd("gaston.grow", 2*time.Millisecond)
	op.StageEnd("gaston.grow", 3*time.Millisecond) // aggregates into one node
	op.End()
	remote.Finish()

	wire, err := EncodeNode(remote.Tree())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeNode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "worker.w1" || len(decoded.Children) != 1 {
		t.Fatalf("decoded root = %+v", decoded)
	}
	dop := decoded.Children[0]
	if dop.Name != "mine.unit-0" || dop.Counters["patterns"] != 17 {
		t.Fatalf("decoded op = %+v", dop)
	}
	if len(dop.Children) != 1 || dop.Children[0].Calls != 2 {
		t.Fatalf("aggregated stage lost in transit: %+v", dop.Children)
	}
	if got := dop.Children[0].Counters["total_ns"]; got != int64(5*time.Millisecond) {
		t.Fatalf("total_ns = %d, want 5ms", got)
	}

	// Graft under a live local rpc span, anchored at the RPC start.
	local := NewTracer("partserve.update")
	rpc := local.Root().StartChild("cluster.rpc")
	anchor := time.Now()
	if got := rpc.Graft(anchor, decoded, 0, 0); got != 3 {
		t.Fatalf("grafted %d spans, want 3", got)
	}
	rpc.End()
	local.Finish()

	tree := local.Tree()
	worker := tree.Children[0].Children[0]
	if worker.Name != "worker.w1" {
		t.Fatalf("grafted root = %+v", worker)
	}
	gop := worker.Children[0]
	if gop.Name != "mine.unit-0" || gop.Counters["patterns"] != 17 {
		t.Fatalf("grafted op lost state: %+v", gop)
	}
	if gop.Children[0].Calls != 2 || gop.Children[0].Dur() != 5*time.Millisecond {
		t.Fatalf("grafted stage lost aggregation: %+v", gop.Children[0])
	}
	// Rebasing: the grafted op's wall window must sit inside the local
	// trace (non-negative offset from the local root, preserved duration).
	if gop.StartNS < 0 {
		t.Fatalf("grafted op starts before the local root: %+v", gop)
	}
	if gop.DurNS != dop.DurNS {
		t.Fatalf("grafted op duration %d != remote %d", gop.DurNS, dop.DurNS)
	}
}

func TestGraftCaps(t *testing.T) {
	// Node budget: a wide remote tree is cut off with graft.dropped.
	wide := &Node{Name: "worker.w1"}
	for i := 0; i < 10; i++ {
		wide.Children = append(wide.Children, &Node{Name: fmt.Sprintf("mine.unit-%d", i)})
	}
	tr := NewTracer("run")
	if got := tr.Root().Graft(time.Now(), wide, 0, 4); got != 4 {
		t.Fatalf("grafted %d, want 4 (budget)", got)
	}
	tr.Finish()
	root := tr.Tree().Children[0]
	if len(root.Children) != 3 { // root consumed 1 of the 4
		t.Fatalf("kept %d children, want 3", len(root.Children))
	}
	if root.Counters["graft.dropped"] != 7 {
		t.Fatalf("graft.dropped = %d, want 7", root.Counters["graft.dropped"])
	}

	// Depth cap: a deep chain stops at maxDepth levels.
	deep := &Node{Name: "d0"}
	cur := deep
	for i := 1; i < 6; i++ {
		child := &Node{Name: fmt.Sprintf("d%d", i)}
		cur.Children = []*Node{child}
		cur = child
	}
	tr2 := NewTracer("run")
	if got := tr2.Root().Graft(time.Now(), deep, 2, 0); got != 2 {
		t.Fatalf("grafted %d, want 2 (depth)", got)
	}
	tr2.Finish()
	n := tr2.Tree().Children[0]
	if n.Name != "d0" || len(n.Children) != 1 || n.Children[0].Name != "d1" {
		t.Fatalf("depth-capped graft = %+v", n)
	}
	if len(n.Children[0].Children) != 0 {
		t.Fatal("graft exceeded maxDepth")
	}
	if n.Counters["graft.dropped"] != 4 {
		t.Fatalf("graft.dropped = %d, want 4", n.Counters["graft.dropped"])
	}

	// Nil receivers and nil nodes graft nothing.
	var nilSpan *Span
	if nilSpan.Graft(time.Now(), wide, 0, 0) != 0 {
		t.Fatal("nil span grafted")
	}
	if tr.Root().Graft(time.Now(), nil, 0, 0) != 0 {
		t.Fatal("nil node grafted")
	}
}

// TestWriteFlameGolden pins the flame renderer's exact text layout on a
// hand-built tree with fixed durations (the live WriteFlame path differs
// only in reading the tree off a tracer).
func TestWriteFlameGolden(t *testing.T) {
	root := &Node{
		Name: "run", DurNS: int64(10 * time.Millisecond),
		Children: []*Node{
			{Name: "partition", StartNS: 0, DurNS: int64(2500 * time.Microsecond)},
			{
				Name: "units", StartNS: int64(2500 * time.Microsecond), DurNS: int64(5 * time.Millisecond),
				Calls:    4,
				Counters: map[string]int64{"total_ns": int64(5 * time.Millisecond)},
			},
		},
	}
	var b strings.Builder
	writeFlameNode(&b, root, 0, root.Dur())
	got := b.String()
	want := "" +
		"run                                            10ms  100.0% ████████████████████████\n" +
		"  partition                                 2.5ms   25.0% ██████\n" +
		"  units (x4)                                  5ms   50.0% ████████████\n"
	if got != want {
		t.Fatalf("flame output drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGatherAndWriteSampleSeries(t *testing.T) {
	r := NewRegistry("")
	c := r.RegisterCounter("partworker_units_mined_total", "Units mined.")
	c.Add(3)
	h := r.Histogram("partworker_unit_mine_seconds", "Unit mine latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(9)
	v := r.HistogramVec("partworker_replica_read_seconds", "Replica reads.", "op", []float64{1})
	v.With("topk").Observe(0.25)
	v.With("contains").Observe(0.25)
	r.GaugeFunc("partworker_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	r.GaugeFunc("partworker_snapshot_epoch", "Epoch.", func() float64 { return 7 })

	samples := r.Gather()
	if len(samples) != 6 { // vec contributes one per child
		t.Fatalf("gathered %d samples, want 6: %+v", len(samples), samples)
	}
	byName := map[string][]Sample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if s := byName["partworker_units_mined_total"][0]; s.Type != "counter" || s.Value != 3 {
		t.Fatalf("counter sample = %+v", s)
	}
	hs := byName["partworker_unit_mine_seconds"][0]
	if hs.Type != "histogram" || hs.Count != 2 || len(hs.Counts) != 3 || hs.Counts[0] != 1 || hs.Counts[2] != 1 {
		t.Fatalf("histogram sample = %+v", hs)
	}
	if vs := byName["partworker_replica_read_seconds"]; len(vs) != 2 || vs[0].LabelValue != "topk" || vs[1].LabelValue != "contains" {
		t.Fatalf("vec samples = %+v", vs)
	}
	if s := byName["partworker_uptime_seconds"][0]; s.Type != "gauge" || s.Value != 1.5 {
		t.Fatalf("gauge sample = %+v", s)
	}
	if s := byName["partworker_snapshot_epoch"][0]; s.Value != 7 {
		t.Fatalf("epoch gauge sample = %+v", s)
	}

	// Federated rendering: caller-injected worker label, vec label
	// appended, histograms rendered cumulatively — no HELP/TYPE here.
	var b strings.Builder
	WriteSampleSeries(&b, "partserve_worker_units_mined_total", `worker="w1"`, byName["partworker_units_mined_total"][0])
	WriteSampleSeries(&b, "partserve_worker_unit_mine_seconds", `worker="w1"`, hs)
	WriteSampleSeries(&b, "partserve_worker_replica_read_seconds", `worker="w1"`, byName["partworker_replica_read_seconds"][0])
	WriteSampleSeries(&b, "partserve_worker_uptime_seconds", "", byName["partworker_uptime_seconds"][0])
	out := b.String()
	for _, want := range []string{
		`partserve_worker_units_mined_total{worker="w1"} 3`,
		`partserve_worker_unit_mine_seconds_bucket{worker="w1",le="1"} 1`,
		`partserve_worker_unit_mine_seconds_bucket{worker="w1",le="+Inf"} 2`,
		`partserve_worker_unit_mine_seconds_count{worker="w1"} 2`,
		`partserve_worker_replica_read_seconds_bucket{worker="w1",op="topk",le="1"} 1`,
		`partserve_worker_uptime_seconds 1.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("federated exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP") {
		t.Fatal("WriteSampleSeries must not emit HELP/TYPE")
	}
}

func TestSlowLogEntriesN(t *testing.T) {
	l := NewSlowLog(8, time.Millisecond)
	for i := 0; i < 5; i++ {
		l.Record(SlowEntry{Detail: fmt.Sprintf("op-%d", i), TraceID: NewTraceID(), Duration: time.Second})
	}
	if got := l.EntriesN(2); len(got) != 2 || got[0].Detail != "op-4" || got[1].Detail != "op-3" {
		t.Fatalf("EntriesN(2) = %+v", got)
	}
	if got := l.EntriesN(0); len(got) != 5 {
		t.Fatalf("EntriesN(0) returned %d entries, want all 5", len(got))
	}
	if got := l.EntriesN(100); len(got) != 5 {
		t.Fatalf("EntriesN(100) returned %d entries, want 5", len(got))
	}
	if l.EntriesN(1)[0].TraceID == "" {
		t.Fatal("entry lost its trace id")
	}
}

// TestSlowLogConcurrent hammers Record/EntriesN/Total from many
// goroutines; run under -race this is the journal's concurrency contract.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, time.Millisecond)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Record(SlowEntry{Kind: "http", Detail: fmt.Sprintf("w%d-%d", w, i), Duration: time.Second})
				if i%32 == 0 {
					if got := l.EntriesN(4); len(got) > 4 {
						t.Errorf("EntriesN(4) returned %d", len(got))
						return
					}
					l.Total()
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", l.Total(), writers*perWriter)
	}
	if got := l.Entries(); len(got) != 16 {
		t.Fatalf("ring kept %d entries, want 16", len(got))
	}
}
