package server

// trace_http_test.go: the request-scoped trace surface — the
// X-Partserve-Trace response header, ?trace=1 inline span trees on
// contains and update, the bounded trace-carrying slow journal, and
// cluster-mode federation (partserve_worker_* on /metrics, grafted
// worker spans in update traces).

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"partminer/internal/cluster"
	"partminer/internal/graph"
	"partminer/internal/obs"
)

func containsBody(t *testing.T, db graph.Database) string {
	t.Helper()
	var b strings.Builder
	if err := graph.WriteDatabase(&b, graph.Database{db[0]}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestHTTPTraceSurface(t *testing.T) {
	db := testDB(7, 10)
	cfg := testConfig()
	cfg.SlowThreshold = time.Nanosecond // journal everything
	s := mustStart(t, db, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every response carries the request's trace id.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	hdr := resp.Header.Get("X-Partserve-Trace")
	if len(hdr) != 16 {
		t.Fatalf("X-Partserve-Trace = %q, want a 16-hex trace id", hdr)
	}

	// ?trace=1 inlines the span tree; without it no trace is shipped.
	var plain struct {
		Support int       `json:"support"`
		TraceID string    `json:"trace_id"`
		Trace   *obs.Node `json:"trace"`
	}
	post(t, ts.URL+"/v1/contains", containsBody(t, db), http.StatusOK, &plain)
	if plain.TraceID != "" || plain.Trace != nil {
		t.Fatalf("untraced contains shipped a trace: %+v", plain)
	}
	var traced struct {
		Support int       `json:"support"`
		TraceID string    `json:"trace_id"`
		Trace   *obs.Node `json:"trace"`
	}
	post(t, ts.URL+"/v1/contains?trace=1", containsBody(t, db), http.StatusOK, &traced)
	if traced.TraceID == "" || traced.Trace == nil {
		t.Fatalf("?trace=1 shipped no trace: %+v", traced)
	}
	if traced.Trace.Name != "http.contains" {
		t.Fatalf("trace root = %q, want the endpoint span", traced.Trace.Name)
	}

	// ?trace=1 on update: every result carries run_id, trace_id, and the
	// fold's span tree; untraced updates carry ids but no tree.
	var upd struct {
		Epoch   uint64    `json:"epoch"`
		RunID   string    `json:"run_id"`
		TraceID string    `json:"trace_id"`
		Trace   *obs.Node `json:"trace"`
	}
	post(t, ts.URL+"/v1/update?trace=1",
		`{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":1}]}`, http.StatusOK, &upd)
	if upd.RunID == "" || upd.TraceID == "" || upd.Trace == nil {
		t.Fatalf("traced update lost its trace: %+v", upd)
	}
	// A fold mines no unit, so its trace has no units phase.
	if names := flatten(upd.Trace); !strings.Contains(names, "partition") || !strings.Contains(names, "merge.root") {
		t.Fatalf("fold trace lacks the fold phases: %s", names)
	}
	var untraced struct {
		RunID   string    `json:"run_id"`
		TraceID string    `json:"trace_id"`
		Trace   *obs.Node `json:"trace"`
	}
	post(t, ts.URL+"/v1/update",
		`{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":2}]}`, http.StatusOK, &untraced)
	if untraced.RunID == "" || untraced.TraceID == "" {
		t.Fatalf("update lost its correlation ids: %+v", untraced)
	}
	if untraced.Trace != nil {
		t.Fatal("untraced update shipped a span tree")
	}

	// /v1/debug/slow honors ?n= and entries carry trace ids.
	var slow struct {
		Total   uint64          `json:"total"`
		Entries []obs.SlowEntry `json:"entries"`
	}
	get(t, ts.URL+"/v1/debug/slow?n=1", http.StatusOK, &slow)
	if len(slow.Entries) != 1 {
		t.Fatalf("?n=1 returned %d entries", len(slow.Entries))
	}
	if slow.Total < 3 {
		t.Fatalf("journal total = %d, want every request journaled", slow.Total)
	}
	if slow.Entries[0].TraceID == "" {
		t.Fatalf("slow entry lacks a trace id: %+v", slow.Entries[0])
	}
	var all struct {
		Entries []obs.SlowEntry `json:"entries"`
	}
	get(t, ts.URL+"/v1/debug/slow", http.StatusOK, &all)
	if len(all.Entries) <= 1 {
		t.Fatalf("unbounded slow query returned %d entries", len(all.Entries))
	}
	get(t, ts.URL+"/v1/debug/slow?n=bogus", http.StatusBadRequest, nil)
}

// flatten renders a span tree's names depth-first for containment
// assertions.
func flatten(n *obs.Node) string {
	var b strings.Builder
	var walk func(*obs.Node)
	walk = func(n *obs.Node) {
		b.WriteString(n.Name)
		b.WriteString(" ")
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// TestClusterModeTraceAndFederation: with a fleet behind the server,
// /metrics grows partserve_worker_* series labeled by worker id (fed by
// heartbeats), and a traced update's span tree contains the grafted
// worker-side spans — one flame across both processes.
func TestClusterModeTraceAndFederation(t *testing.T) {
	coord := startTestCluster(t, 2, cluster.Config{Replicas: 2})
	db := testDB(11, 10)
	cfg := testConfig()
	cfg.Cluster = coord
	s := mustStart(t, db, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The traced update's tree must include remote worker subtrees. An
	// in-place fold mines no unit, so the update appends a graph: a full
	// re-mine, which ships its units to the workers.
	var upd struct {
		TraceID    string    `json:"trace_id"`
		FullRemine bool      `json:"full_remine"`
		Trace      *obs.Node `json:"trace"`
	}
	add, _ := json.Marshal(map[string][]Op{"ops": {{Kind: OpAddGraph, Graph: db[0].String()}}})
	post(t, ts.URL+"/v1/update?trace=1", string(add), http.StatusOK, &upd)
	if upd.Trace == nil || !upd.FullRemine {
		t.Fatalf("traced cluster update = %+v", upd)
	}
	names := flatten(upd.Trace)
	if !strings.Contains(names, "worker.srv-worker-") {
		t.Fatalf("cluster re-mine trace lacks grafted worker spans: %s", names)
	}
	if coord.Counters().TraceGrafts == 0 {
		t.Fatal("no remote subtrees were grafted")
	}

	// Federation: poll /metrics until a heartbeat has delivered worker
	// samples; series are renamed and labeled by worker id.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(raw)
		if strings.Contains(body, `partserve_worker_units_mined_total{worker="srv-worker-0"}`) &&
			strings.Contains(body, `partserve_worker_units_mined_total{worker="srv-worker-1"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never federated worker series:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, "# TYPE partserve_worker_unit_mine_seconds histogram") {
		t.Fatalf("federated histogram family missing HELP/TYPE:\n%s", body)
	}
	if strings.Count(body, "# TYPE partserve_worker_units_mined_total counter") != 1 {
		t.Fatal("federated family declared HELP/TYPE more than once")
	}
	if !strings.Contains(body, `partserve_worker_unit_mine_seconds_bucket{worker="srv-worker-0",le=`) {
		t.Fatalf("federated histogram series missing:\n%s", body)
	}

	// The member block in /v1/cluster carries the digested samples.
	var ci struct {
		Members []struct {
			ID      string             `json:"id"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"members"`
	}
	get(t, ts.URL+"/v1/cluster", http.StatusOK, &ci)
	found := false
	for _, m := range ci.Members {
		if m.Metrics["partworker_units_mined_total"] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v1/cluster members carry no federated digests: %+v", ci.Members)
	}

	// Replica contains with ?trace=1 grafts the replica's span tree into
	// the request trace (poll: replication runs just after the fold).
	var rc struct {
		Replica bool      `json:"replica"`
		Trace   *obs.Node `json:"trace"`
	}
	for {
		post(t, ts.URL+"/v1/contains?replica=1&trace=1", containsBody(t, db), http.StatusOK, &rc)
		if rc.Replica {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica read never succeeded")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rc.Trace == nil || !strings.Contains(flatten(rc.Trace), "replica.contains") {
		t.Fatalf("replica read trace lacks the grafted replica span: %+v", rc.Trace)
	}
}
