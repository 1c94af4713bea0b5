package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/query"
)

// getJSON fetches url and decodes the response into out, failing the
// test on a status other than want.
func doJSON(t *testing.T, req *http.Request, want int, out any) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d (want %d): %s", req.Method, req.URL, resp.StatusCode, want, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", req.Method, req.URL, body, err)
		}
	}
}

func get(t *testing.T, url string, want int, out any) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	doJSON(t, req, want, out)
}

func post(t *testing.T, url, body string, want int, out any) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	doJSON(t, req, want, out)
}

// TestHTTPEndpoints walks the whole API surface against a live handler:
// health, top-k patterns, key lookup, containment, an update round, and
// the stats document reflecting it.
func TestHTTPEndpoints(t *testing.T) {
	db := testDB(7, 10)
	cfg := testConfig()
	s := mustStart(t, db, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health struct {
		OK    bool   `json:"ok"`
		Epoch uint64 `json:"epoch"`
	}
	get(t, ts.URL+"/healthz", http.StatusOK, &health)
	if !health.OK || health.Epoch != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	var pats struct {
		Epoch    uint64        `json:"epoch"`
		Total    int           `json:"total"`
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, ts.URL+"/v1/patterns?k=3&tids=1", http.StatusOK, &pats)
	if pats.Epoch != 1 || pats.Total == 0 || len(pats.Patterns) == 0 || len(pats.Patterns) > 3 {
		t.Fatalf("patterns = %+v", pats)
	}
	for i := 1; i < len(pats.Patterns); i++ {
		if pats.Patterns[i].Support > pats.Patterns[i-1].Support {
			t.Fatalf("top-k not sorted by support: %+v", pats.Patterns)
		}
	}
	if len(pats.Patterns[0].TIDs) != pats.Patterns[0].Support {
		t.Fatalf("tids=1 returned %d tids for support %d", len(pats.Patterns[0].TIDs), pats.Patterns[0].Support)
	}

	// Size filtering: min_edges/max_edges bound the edge count of every
	// returned pattern; minsize is the back-compat alias for min_edges.
	var sized struct {
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, ts.URL+"/v1/patterns?min_edges=2", http.StatusOK, &sized)
	if len(sized.Patterns) == 0 {
		t.Fatal("min_edges=2 returned no patterns")
	}
	for _, p := range sized.Patterns {
		if p.Size < 2 {
			t.Fatalf("min_edges=2 returned pattern of size %d: %+v", p.Size, p)
		}
	}
	var capped struct {
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, ts.URL+"/v1/patterns?k=0&max_edges=1", http.StatusOK, &capped)
	if len(capped.Patterns) == 0 {
		t.Fatal("max_edges=1 returned no patterns")
	}
	for _, p := range capped.Patterns {
		if p.Size != 1 {
			t.Fatalf("max_edges=1 returned pattern of size %d: %+v", p.Size, p)
		}
	}
	var aliased struct {
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, ts.URL+"/v1/patterns?minsize=2", http.StatusOK, &aliased)
	if len(aliased.Patterns) != len(sized.Patterns) {
		t.Fatalf("minsize=2 returned %d patterns, min_edges=2 returned %d",
			len(aliased.Patterns), len(sized.Patterns))
	}
	var empty struct {
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, ts.URL+"/v1/patterns?min_edges=3&max_edges=2", http.StatusOK, &empty)
	if len(empty.Patterns) != 0 {
		t.Fatalf("inverted size range returned %d patterns", len(empty.Patterns))
	}
	get(t, ts.URL+"/v1/patterns?min_edges=bogus", http.StatusBadRequest, nil)
	get(t, ts.URL+"/v1/patterns?max_edges=bogus", http.StatusBadRequest, nil)

	var one struct {
		Pattern patternJSON `json:"pattern"`
	}
	get(t, ts.URL+"/v1/patterns?key="+url.QueryEscape(pats.Patterns[0].Key), http.StatusOK, &one)
	if one.Pattern.Key != pats.Patterns[0].Key {
		t.Fatalf("key lookup returned %q, want %q", one.Pattern.Key, pats.Patterns[0].Key)
	}
	get(t, ts.URL+"/v1/patterns?key=no-such-code", http.StatusNotFound, nil)
	get(t, ts.URL+"/v1/patterns?k=bogus", http.StatusBadRequest, nil)

	// Containment: the first database graph must contain its own first
	// edge, both as raw text and as a JSON wrapper.
	g := db[0]
	probe := graph.New(0)
	probe.AddVertex(g.Labels[0])
	probe.AddVertex(g.Labels[g.Adj[0][0].To])
	probe.MustAddEdge(0, 1, g.Adj[0][0].Label)
	var contains struct {
		Epoch   uint64 `json:"epoch"`
		Support int    `json:"support"`
		TIDs    []int  `json:"tids"`
		Stats   struct {
			Candidates int `json:"candidates"`
			Verified   int `json:"verified"`
		} `json:"stats"`
	}
	post(t, ts.URL+"/v1/contains", probe.String(), http.StatusOK, &contains)
	if contains.Support == 0 || !containsInt(contains.TIDs, 0) {
		t.Fatalf("contains = %+v; want tid 0 among supporters", contains)
	}
	wrapped, _ := json.Marshal(map[string]string{"graph": probe.String()})
	var contains2 struct {
		Support int `json:"support"`
	}
	post(t, ts.URL+"/v1/contains", string(wrapped), http.StatusOK, &contains2)
	if contains2.Support != contains.Support {
		t.Fatalf("JSON-wrapped contains = %d, raw = %d", contains2.Support, contains.Support)
	}
	post(t, ts.URL+"/v1/contains", "e 0 1", http.StatusBadRequest, nil)
	// The vertexless query is contained in every graph: the answer a full
	// scan gives.
	var vertexless struct {
		Support int   `json:"support"`
		TIDs    []int `json:"tids"`
	}
	post(t, ts.URL+"/v1/contains", "t # 0\n", http.StatusOK, &vertexless)
	if scan := query.Scan(db, graph.New(0)); vertexless.Support != len(db) || len(scan) != len(db) || len(vertexless.TIDs) != len(db) {
		t.Fatalf("vertexless contains = %+v, scan %d; want support %d", vertexless, len(scan), len(db))
	}

	// An update round: relabel, observe the epoch move everywhere.
	var upd ApplyResult
	post(t, ts.URL+"/v1/update",
		`{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":2}]}`, http.StatusOK, &upd)
	if upd.Epoch != 2 || upd.Ops != 1 {
		t.Fatalf("update = %+v", upd)
	}
	post(t, ts.URL+"/v1/update", `{"ops":[{"op":"add_edge","tid":999}]}`, http.StatusBadRequest, nil)
	post(t, ts.URL+"/v1/update", `{not json`, http.StatusBadRequest, nil)

	var stats Stats
	get(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Epoch != 2 || stats.Batches != 1 || stats.OpsApplied != 1 || stats.OpsRejected == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Patterns == 0 || stats.Graphs != len(db) {
		t.Fatalf("stats db shape = %+v", stats)
	}
	if len(stats.Merge) == 0 {
		t.Fatal("stats has no merge-join counters")
	}
	for _, name := range []string{"merge.triple_pruned", "merge.sig_pruned", "merge.pair_pruned"} {
		if _, ok := stats.Merge[name]; !ok {
			t.Errorf("stats.Merge missing pruning counter %q (have %v)", name, stats.Merge)
		}
	}
	if len(stats.Exec.Stages) == 0 {
		t.Fatal("stats has no exec stage breakdown")
	}
	if stats.LastLatencyNS <= 0 || stats.MaxLatencyNS < stats.LastLatencyNS {
		t.Fatalf("latency stats = last %d, max %d", stats.LastLatencyNS, stats.MaxLatencyNS)
	}

	// Method filtering comes from the mux patterns.
	post(t, ts.URL+"/v1/patterns", "", http.StatusMethodNotAllowed, nil)
	get(t, ts.URL+"/v1/update", http.StatusMethodNotAllowed, nil)
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestHTTPConsistentEpochPerResponse checks that a response never mixes
// epochs: the support reported by /v1/contains must equal the length of
// its tids list even while updates are folding in concurrently.
func TestHTTPConsistentEpochPerResponse(t *testing.T) {
	db := testDB(8, 10)
	s := mustStart(t, db, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			body := fmt.Sprintf(`{"ops":[{"op":"relabel_vertex","tid":%d,"u":0,"label":%d}]}`, i%len(db), i%3)
			resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	probe := graph.New(0)
	probe.AddVertex(db[1].Labels[0])
	probe.AddVertex(db[1].Labels[db[1].Adj[0][0].To])
	probe.MustAddEdge(0, 1, db[1].Adj[0][0].Label)
	for {
		select {
		case <-done:
			return
		default:
		}
		var contains struct {
			Support int   `json:"support"`
			TIDs    []int `json:"tids"`
		}
		post(t, ts.URL+"/v1/contains", probe.String(), http.StatusOK, &contains)
		if contains.Support != len(contains.TIDs) {
			t.Fatalf("torn response: support %d but %d tids", contains.Support, len(contains.TIDs))
		}
	}
}
