package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partminer/internal/core"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/server"
)

func TestPickTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 10; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(ds, tc.p); got != tc.want {
			t.Errorf("p%g = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %d", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// Ten samples, one a stall: the slowest tenth goes, the rest average.
	ds := []time.Duration{100, 140, 100, 140, 100, 140, 100, 140, 120, 9000}
	if got := trimmedMean(ds); got != 120 {
		t.Errorf("trimmedMean = %d, want 120", got)
	}
	// The tenth is rounded up: four samples lose their slowest, eleven two.
	if got := trimmedMean([]time.Duration{2, 9000, 1, 3}); got != 2 {
		t.Errorf("trimmedMean of 4 = %d, want 2", got)
	}
	if got := trimmedMean(append(ds, 8000)); got != 120 {
		t.Errorf("trimmedMean of 11 = %d, want 120", got)
	}
	// One or two samples are averaged whole.
	if got := trimmedMean([]time.Duration{1, 5}); got != 3 {
		t.Errorf("trimmedMean of 2 = %d, want 3", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("empty sample: %d", got)
	}
}

// The driver computes spread with Python's statistics.quantiles(xs, n=4);
// quantiles([1..10]) is [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %g, want 1", got)
	}
	// Small samples extrapolate: quantiles([1,2,3]) is [1, 2, 3] and
	// quantiles([1,2]) is [0.75, 1.5, 2.25].
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %g, %g; want 1, 3", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of 2 = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("spread of a constant = %g", got)
	}
}

// slowServer answers every request after delay, one at a time per
// connection, like a server stalled behind a fold.
func slowServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte(`{"epoch": 3, "support": 2, "tids": [4, 9]}`)) //nolint:errcheck
	})}
	go hs.Serve(ln) //nolint:errcheck // returns when closed below
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// Latency runs from the due time, and the lag excludes time the
// connection was held by the previous request.
func TestLaneDueTimeAccounting(t *testing.T) {
	const delay = 40 * time.Millisecond
	cn, err := dial(slowServer(t, delay))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	wire := wireRequest(http.MethodGet, "/", nil)
	req := request{c: containsPlanned, wire: wire}
	l := &lane{
		conn:   cn,
		dues:   []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond},
		open:   []request{req, req, req},
		giveUp: time.Minute,
	}
	l.run(time.Now())
	if len(l.records) != 3 {
		t.Fatalf("%d records", len(l.records))
	}
	for i, r := range l.records {
		if r.status != http.StatusOK || r.epoch != 3 {
			t.Fatalf("record %d: status %d epoch %d", i, r.status, r.epoch)
		}
		if want := digestSeed.foldInt(2).foldList([]int{4, 9}); r.sum != want {
			t.Fatalf("record %d: digest %d, want %d", i, r.sum, want)
		}
		// Request i waits for i earlier responses: its latency from the due
		// time is at least (i+1) delays minus its own due offset.
		if min := time.Duration(i+1)*delay - l.dues[i]; r.latency() < min {
			t.Errorf("record %d: latency %v, want at least %v", i, r.latency(), min)
		}
		if r.sent < r.due {
			t.Errorf("record %d: sent %v before due %v", i, r.sent, r.due)
		}
	}
	// The second and third request were late because the connection was
	// busy, which is the server's doing, not the generator's.
	for i, lag := range l.lags {
		if lag < 0 || lag > delay/2 {
			t.Errorf("lag %d = %v: the wait behind the previous response leaked into the generator lag", i, lag)
		}
	}

	// A lane past its give-up point refuses what it has not sent.
	late := &lane{conn: cn, dues: []time.Duration{0, 0}, open: []request{req, req}, giveUp: -1}
	late.run(time.Now())
	if late.refused != 2 || len(late.records) != 0 {
		t.Errorf("refused %d, records %d; want 2, 0", late.refused, len(late.records))
	}
}

func TestInAnyOverlap(t *testing.T) {
	folds := []window{{10, 20}, {40, 50}}
	for _, tc := range []struct {
		from, to time.Duration
		want     bool
	}{
		{0, 5, false},   // before everything
		{0, 10, false},  // ends as the fold starts
		{5, 11, true},   // runs into a fold
		{12, 15, true},  // inside a fold
		{19, 30, true},  // starts inside
		{20, 40, false}, // exactly between two folds
		{30, 41, true},  // reaches the second
		{50, 60, false}, // after everything
		{0, 100, true},  // spans both
	} {
		if got := inAny(folds, tc.from, tc.to); got != tc.want {
			t.Errorf("[%d,%d] overlaps = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: covered once
		{ID: 3, Parent: 0, Start: 60, End: 70},  //
		{ID: 4, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 25, End: 45},  // a grandchild counts against span 2 only
	}
	want := []time.Duration{100 - (40 + 10 + 10), 20, 30 - 20, 10, 30, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d) = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanAnswer(t *testing.T) {
	body := []byte(`{
  "epoch": 12,
  "count": 2,
  "results": [
    {"stats": {"candidates": 3, "verified": 2}, "support": 2, "tids": [
      1,
      5
    ]},
    {"stats": {"candidates": 0}, "support": 0, "tids": []}
  ],
  "patterns": [{"key": "0 1 3 0 4;", "code": "(v0,v1,3,0,4)", "size": 1, "support": 7}]
}`)
	epoch, got := scanAnswer(body)
	want := digestSeed.foldInt(2).foldList([]int{1, 5}).foldInt(0).foldList(nil).foldKey("0 1 3 0 4;").foldInt(7)
	if epoch != 12 || got != want {
		t.Fatalf("epoch %d digest %d; want 12, %d", epoch, got, want)
	}
	if _, other := scanAnswer([]byte(`{"epoch": 12, "support": 2, "tids": [1, 6]}`)); other == digestSeed.foldInt(2).foldList([]int{1, 5}) {
		t.Fatal("different TIDs, same digest")
	}
}

// The harness's model of an update must leave exactly the database the
// server's own staging leaves, or the oracle would check the wrong thing.
func TestUpdateModelMatchesServer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := graph.RandomDatabase(rng, 30, 8, 11, 4, 3)
	const minsup = 4
	srv, err := server.Start(context.Background(), db, server.Config{
		Mine: core.Options{MinSupport: minsup, K: unitsK}, BatchWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	model := append(graph.Database(nil), db...)
	ups := genUpdates(rng, &model, 40, 5, 4)
	orc := newOracle(db, ups, minsup, &queries{})
	for i, u := range ups {
		res, err := srv.Apply(context.Background(), u.ops)
		if err != nil {
			t.Fatalf("update %d %+v: %v", i, u.ops, err)
		}
		if res.FullRemine != u.full || int(res.Epoch) != i+2 {
			t.Fatalf("update %d: full %v epoch %d; model says full %v epoch %d", i, res.FullRemine, res.Epoch, u.full, i+2)
		}
		got, want := srv.Snapshot().DB, orc.database(i+2)
		if len(got) != len(want) {
			t.Fatalf("update %d: %d graphs, model has %d", i, len(got), len(want))
		}
		for tid := range want {
			if !got[tid].Equal(want[tid]) {
				t.Fatalf("update %d: graph %d is\n%s\nmodel has\n%s", i, tid, graph.Format(got[tid]), graph.Format(want[tid]))
			}
			for v := 0; v < want[tid].VertexCount(); v++ {
				if got[tid].UpdateFreq(v) != want[tid].UpdateFreq(v) {
					t.Fatalf("update %d: graph %d vertex %d update frequency %g, model %g", i, tid, v, got[tid].UpdateFreq(v), want[tid].UpdateFreq(v))
				}
			}
		}
	}
	for tid, g := range db {
		if g != orc.database(1)[tid] {
			t.Fatalf("genUpdates modified base graph %d in place", tid)
		}
	}
	if diff := diffSets(srv.Snapshot().Res.Patterns, gspan.Mine(model, gspan.Options{MinSupport: minsup})); diff != "" {
		t.Fatalf("after all updates: %s", diff)
	}
}

// smokeConfig runs a workload at the smoke scale against an in-process
// server: every code path of the real run except child processes.
func smokeConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 5, dbSeed: 11, seconds: 1, sc: smokeScale, dir: t.TempDir(), rounds: 2,
		boot: func(_ string, _ int, db graph.Database, workers int) (*target, error) {
			return bootInProcess(db, smokeScale.minsup, workers, nil)
		},
	}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.problems)
			}
			for _, d := range endToEnd {
				if m, ok := rep.metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v); want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
		})
	}
}

// A wrong answer must be counted, not averaged away. The oracle holds
// updates that come after every read, as serve_read's does: they must not
// excuse a 404, or an answer from an epoch not yet published.
func TestVerifyReadsCatchesWrongAnswer(t *testing.T) {
	db := smokeScale.database(11)
	minsup := absSupport(len(db), smokeScale.minsup)
	rng := rand.New(rand.NewSource(1))
	qs := buildQueries(rng, db, gspan.Mine(db, gspan.Options{MinSupport: minsup}), smokeScale)
	model := append(graph.Database(nil), db...)
	orc := newOracle(db, genUpdates(rng, &model, 3, 3, smokeScale.gen.N), minsup, qs)
	tids := orc.contains(0, 1)
	good := record{c: containsPlanned, id: 0, status: http.StatusOK, epoch: 1, sum: digestSeed.foldInt(len(tids)).foldList(tids), minEpoch: 1, maxEpoch: 1}
	bad := good
	bad.sum = digestSeed.foldInt(len(tids) - 1).foldList(tids[1:])
	early := good
	early.epoch = 2
	missing := record{c: patternsKey, id: 0, status: http.StatusNotFound, minEpoch: 1, maxEpoch: 1}
	rep := newReport("t")
	verifyReads(rep, orc, []record{good, bad, early, missing, {c: containsAdhoc, id: qs.planned}})
	if rep.attempted != 5 || rep.failed != 4 {
		t.Fatalf("attempted %d failed %d; want 5, 4: %v", rep.attempted, rep.failed, rep.problems)
	}
}

// The yardstick is fixed work that no change to the program can move:
// its result is pinned, and its file imports nothing from the module.
func TestYardstickIsFrozen(t *testing.T) {
	if got := yardWork(); got != yardWant {
		t.Fatalf("yardWork() = %d, want %d", got, uint64(yardWant))
	}
	f, err := parser.ParseFile(token.NewFileSet(), "yardstick.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if strings.HasPrefix(imp.Path.Value, `"partminer`) {
			t.Errorf("yardstick.go imports %s", imp.Path.Value)
		}
	}
}

func TestSmokeLadder(t *testing.T) {
	old := outDir
	outDir = t.TempDir()
	defer func() { outDir = old }()
	rep, err := runLadder("ladder", 5, 11, 2, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("failed %d: %v", rep.failed, rep.problems)
	}
	for _, d := range perLayer {
		if m, ok := rep.metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v (present %v)", d.name, m, ok)
		}
	}
	data, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name   string `json:"name"`
			Parent int    `json:"parent"`
			Self   int64  `json:"self_ns"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range doc.Spans {
		seen[s.Name] = true
		if s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %s: self %d outside [0, %d]", s.Name, s.Self, s.End-s.Start)
		}
	}
	// Calls the ladder makes, and stages the program reports through the
	// observer it was handed.
	for _, name := range []string{"gspan.Mine", "mergejoin.MergeContext", "core.PartMiner", "server.Apply in-place", "partition", "units", "merge", "index.build", "cluster.rpc", "workload serve_mixed"} {
		if !seen[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, or the driver would look for values that are never printed.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, harness has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d is %+v, harness has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
