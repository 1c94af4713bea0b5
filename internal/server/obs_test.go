package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"partminer/internal/graph"
	"partminer/internal/obs"
)

// scrape fetches /metrics through the real handler and returns the body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// metricValue extracts an unlabeled sample's value from an exposition
// body; -1 when the family is absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// TestMetricsExposition checks the families the acceptance criteria name
// appear as valid exposition after one fold and one query.
func TestMetricsExposition(t *testing.T) {
	s := mustStart(t, testDB(31, 10), testConfig())
	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 0, U: 0, Label: 2}}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/patterns?k=3", nil))
	if rec.Code != 200 {
		t.Fatalf("patterns status %d", rec.Code)
	}

	body := scrape(t, s)
	for _, want := range []string{
		"# TYPE partserve_http_request_seconds histogram",
		`partserve_http_request_seconds_bucket{endpoint="patterns",le="+Inf"} 1`,
		"# TYPE partserve_update_fold_seconds histogram",
		"partserve_update_fold_seconds_count 1",
		"partserve_unit_mine_seconds_count",
		"partserve_queries_total 1",
		"partserve_updates_total 1",
		"partserve_epoch 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, body)
		}
	}
	if metricValue(body, "partserve_uptime_seconds") < 0 {
		t.Fatal("no uptime gauge")
	}
}

// TestMetricsMonotonicDuringSwaps hammers /metrics and /v1/stats while
// update folds swap snapshots, asserting the cumulative counters never
// move backwards. Run under -race this also proves the scrape path is
// data-race free against the fold path.
func TestMetricsMonotonicDuringSwaps(t *testing.T) {
	s := mustStart(t, testDB(32, 10), testConfig())

	done := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 15; i++ {
			ops := []Op{{Kind: OpRelabelVertex, TID: i % 10, U: 0, Label: i % 3}}
			if _, err := s.Apply(context.Background(), ops); err != nil {
				writerErr = err
				return
			}
		}
	}()

	var lastUpdates, lastFolds, lastEpoch float64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		body := scrape(t, s)
		updates := metricValue(body, "partserve_updates_total")
		folds := metricValue(body, "partserve_update_fold_seconds_count")
		epoch := metricValue(body, "partserve_epoch")
		if updates < lastUpdates || folds < lastFolds || epoch < lastEpoch {
			t.Fatalf("counter went backwards: updates %v->%v folds %v->%v epoch %v->%v",
				lastUpdates, updates, lastFolds, folds, lastEpoch, epoch)
		}
		lastUpdates, lastFolds, lastEpoch = updates, folds, epoch

		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		if rec.Code != 200 {
			t.Fatalf("/v1/stats status %d", rec.Code)
		}
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	if body := scrape(t, s); metricValue(body, "partserve_updates_total") != 15 {
		t.Fatalf("final updates_total = %v, want 15", metricValue(body, "partserve_updates_total"))
	}
}

// TestViewsAgree: the registry is the only accumulator, so its three
// renderings — /v1/stats, /metrics, and what an Observer handed in through
// Config.Observer saw of the same fan-out — must report the same numbers
// after known traffic: 3 in-place folds, 1 add_graph, then on the final
// snapshot N planned reads and M distinct ad-hoc reads, each twice.
func TestViewsAgree(t *testing.T) {
	const planned, adhoc = 5, 3
	db := testDB(34, 10)
	cfg := testConfig()
	ext := obs.NewRegistry("ext_")
	cfg.Observer = ext
	s := mustStart(t, db, cfg)

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(ctx, []Op{{Kind: OpRelabelVertex, TID: i, U: 0, Label: (i + 1) % 3}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Apply(ctx, []Op{{Kind: OpAddGraph, Graph: db[0].String()}})
	if err != nil || !res.FullRemine {
		t.Fatalf("add_graph: %+v, %v", res, err)
	}

	snap := s.Snapshot()
	keys := snap.Res.Patterns.Keys()
	if len(keys) < planned {
		t.Fatalf("only %d patterns mined", len(keys))
	}
	for _, key := range keys[:planned] {
		if _, st := snap.Contains(snap.Res.Patterns[key].Code.Graph()); !st.PlanHit {
			t.Fatalf("mined pattern %s was not a planned read", key)
		}
	}
	for i := 0; i < adhoc; i++ {
		q := graph.New(0) // labels no graph carries: ad-hoc, empty answer
		q.AddVertex(90 + i)
		q.AddVertex(91 + i)
		q.MustAddEdge(0, 1, 0)
		if _, st := snap.Contains(q); st.PlanHit || st.CacheHit {
			t.Fatalf("ad-hoc query %d: first run %+v", i, st)
		}
		if _, st := snap.Contains(q); !st.CacheHit {
			t.Fatalf("ad-hoc query %d: second run missed the cache", i)
		}
	}

	// View 1: /v1/stats, through the handler.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanHits != planned || stats.CacheHits != adhoc || stats.CacheMisses != adhoc || stats.VF2Fallbacks != adhoc {
		t.Fatalf("stats: plan_hits %d, cache hits/misses %d/%d, vf2_fallbacks %d; want %d, %d/%d, %d",
			stats.PlanHits, stats.CacheHits, stats.CacheMisses, stats.VF2Fallbacks, planned, adhoc, adhoc, adhoc)
	}
	if stats.Batches != 4 || stats.FoldLatency.Count != 4 {
		t.Fatalf("stats: batches %d, fold digest count %d; want 4", stats.Batches, stats.FoldLatency.Count)
	}
	if len(stats.Merge) != 12 || stats.Merge["merge.candidates"] == 0 {
		t.Fatalf("stats.merge = %v", stats.Merge)
	}
	for name, v := range stats.Merge {
		if got := stats.Exec.Counters[name]; got != v {
			t.Errorf("stats.merge[%s] = %d but exec.counters has %d", name, v, got)
		}
	}

	// View 2: /metrics.
	body := scrape(t, s)
	for name, want := range map[string]int64{
		"partserve_plan_hit_total":             planned,
		"partserve_plan_fallback_total":        adhoc,
		"partserve_query_cache_hit_total":      adhoc,
		"partserve_merge_candidates_total":     stats.Merge["merge.candidates"],
		"partserve_merge_iso_tests_total":      stats.Merge["merge.iso_tests"],
		"partserve_update_fold_seconds_count":  4,
		"partserve_plan_find_seconds_count":    planned,
		"partserve_merge_verify_seconds_count": int64(stats.Exec.Stage("merge.verify").Calls),
		"partserve_unit_mine_seconds_count":    int64(stats.Exec.Stage("unit.0").Calls + stats.Exec.Stage("unit.1").Calls),
	} {
		if got := metricValue(body, name); got != float64(want) {
			t.Errorf("/metrics %s = %v, /v1/stats says %d", name, got, want)
		}
	}

	// View 3: the caller's own observer on the same fan-out.
	seen := ext.View()
	if !reflect.DeepEqual(seen.Counters, stats.Exec.Counters) {
		t.Errorf("Config.Observer counters %v\n/v1/stats exec.counters %v", seen.Counters, stats.Exec.Counters)
	}
	for _, st := range stats.Exec.Stages {
		if got := seen.Stage(st.Stage).Calls; got != st.Calls {
			t.Errorf("stage %s: Config.Observer saw %d calls, /v1/stats %d", st.Stage, got, st.Calls)
		}
	}
}

// TestStatsDigestsAndSlowJournal covers the /v1/stats satellite fields
// and the hair-trigger slow journal end to end.
func TestStatsDigestsAndSlowJournal(t *testing.T) {
	cfg := testConfig()
	cfg.SlowThreshold = time.Nanosecond // journal everything
	s := mustStart(t, testDB(33, 10), cfg)

	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 1, U: 0, Label: 1}}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/patterns?k=2", nil))
	if rec.Code != 200 {
		t.Fatalf("patterns status %d", rec.Code)
	}

	st := s.Stats()
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", st.UptimeSeconds)
	}
	if st.Updates != 1 || st.Queries != 1 {
		t.Fatalf("updates/queries = %d/%d, want 1/1", st.Updates, st.Queries)
	}
	if st.FoldLatency.Count != 1 || st.FoldLatency.P50 <= 0 {
		t.Fatalf("fold latency digest = %+v", st.FoldLatency)
	}
	if _, ok := st.HTTPLatency["patterns"]; !ok {
		t.Fatalf("no patterns latency digest: %+v", st.HTTPLatency)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/slow", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/debug/slow status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"kind": "fold"`) || !strings.Contains(body, `"kind": "http"`) {
		t.Fatalf("slow journal missing fold/http entries:\n%s", body)
	}
	if !strings.Contains(body, `"trace"`) {
		t.Fatalf("slow entries carry no span trees:\n%s", body)
	}
}
