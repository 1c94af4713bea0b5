package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"partminer/internal/graph"
	"partminer/internal/obs"
	"partminer/internal/pattern"
	"partminer/internal/query"
)

// patternJSON is the wire form of one frequent pattern.
type patternJSON struct {
	// Key is the canonical DFS-code key — the stable identifier accepted
	// back by /v1/patterns?key=.
	Key string `json:"key"`
	// Code is the human-readable DFS code.
	Code string `json:"code"`
	// Size is the edge count; Support the transaction support.
	Size    int   `json:"size"`
	Support int   `json:"support"`
	TIDs    []int `json:"tids,omitempty"`
}

func patternToJSON(key string, p *pattern.Pattern, withTIDs bool) patternJSON {
	pj := patternJSON{
		Key:     key,
		Code:    p.Code.String(),
		Size:    p.Size(),
		Support: p.Support,
	}
	if withTIDs && p.TIDs != nil {
		pj.TIDs = p.TIDs.Slice()
	}
	return pj
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz              liveness + current epoch
//	GET  /v1/stats             Stats (epoch, batch latencies, exec phases,
//	                           merge-join pruning counters, latency digests)
//	GET  /v1/patterns          top-k frequent patterns; ?k=, ?min_edges=
//	                           (alias ?minsize=), ?max_edges=, ?tids=1;
//	                           or one pattern by ?key=; ?replica=1 serves
//	                           the list from a cluster snapshot replica
//	                           when one is live (local fallback otherwise)
//	POST /v1/contains          graph text (or {"graph": "..."}) -> ids of
//	                           database graphs containing it; multi-graph
//	                           text or {"graphs": [...]} answers a whole
//	                           batch from one snapshot load; ?replica=1
//	                           routes single queries to a snapshot replica
//	POST /v1/update            {"ops": [...]} -> applied atomically,
//	                           responds after the snapshot swap
//	GET  /v1/cluster           coordinator-mode fleet state: members with
//	                           liveness, unit assignment, replica set,
//	                           cluster counters (404 without a cluster)
//	GET  /metrics              Prometheus text exposition (partserve_*,
//	                           plus federated partserve_worker_* series
//	                           in cluster mode)
//	GET  /v1/debug/slow        slow-operation journal, newest first,
//	                           with span trees; ?n= bounds the entries
//
// Every read handler answers from one snapshot load, so each response is
// consistent with exactly one epoch even while updates fold in. Every
// endpoint (the exposition endpoints aside) runs under the instrument
// middleware: a per-request trace on the request context (its id echoed
// as X-Partserve-Trace), the endpoint latency histogram, and
// slow-request journaling. ?trace=1 on /v1/contains and /v1/update
// inlines the span tree — including spans grafted back from cluster
// workers — in the response.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", false, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": s.Snapshot().Epoch})
	}))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", false, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.HandleFunc("GET /v1/patterns", s.instrument("patterns", true, s.handlePatterns))
	mux.HandleFunc("POST /v1/contains", s.instrument("contains", true, s.handleContains))
	mux.HandleFunc("POST /v1/update", s.instrument("update", false, s.handleUpdate))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", false, s.handleCluster))
	mux.Handle("GET /metrics", s.metrics.registry.Handler())
	mux.HandleFunc("GET /v1/debug/slow", s.handleSlow)
	return mux
}

// instrument wraps one endpoint with the request observability stack: a
// per-request trace whose root span rides the request context (the whole
// tracer too, for handlers that inline the tree on ?trace=1), the trace
// id echoed as X-Partserve-Trace, the endpoint latency histogram, the
// query counter, and a slow-log entry (with the trace tree and trace id)
// when the request crosses the slow threshold.
func (s *Server) instrument(endpoint string, isQuery bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tracer := obs.NewTracer("http." + endpoint)
		ctx := obs.WithTracer(obs.WithSpan(r.Context(), tracer.Root()), tracer)
		r = r.WithContext(ctx)
		w.Header().Set("X-Partserve-Trace", tracer.ID())
		t0 := time.Now()
		h(w, r)
		tracer.Finish()
		s.observeRequest(endpoint, isQuery, time.Since(t0), tracer)
	}
}

// traceInline adds the request's trace id and (still-open) span tree to
// a response document when the request asked for ?trace=1.
func traceInline(r *http.Request, out map[string]any) {
	if !boolParam(r.URL.Query().Get("trace")) {
		return
	}
	if t := obs.TracerFrom(r.Context()); t != nil {
		out["trace_id"] = t.ID()
		out["trace"] = t.Tree()
	}
}

func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	n, err := intParam(r.URL.Query().Get("n"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad n: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": s.slow.Threshold().Nanoseconds(),
		"total":        s.slow.Total(),
		"entries":      s.slow.EntriesN(n),
	})
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	q := r.URL.Query()
	withTIDs := boolParam(q.Get("tids"))

	if key := q.Get("key"); key != "" {
		p := snap.Pattern(key)
		if p == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("pattern %q not frequent at epoch %d", key, snap.Epoch))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"epoch":   snap.Epoch,
			"pattern": patternToJSON(key, p, withTIDs),
		})
		return
	}

	k, err := intParam(q.Get("k"), 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad k: %w", err))
		return
	}
	// minsize is the historical spelling of min_edges; both filter on
	// edge count, the newer one wins when both are present.
	minSize, err := intParam(q.Get("minsize"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad minsize: %w", err))
		return
	}
	minEdges, err := intParam(q.Get("min_edges"), minSize)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_edges: %w", err))
		return
	}
	maxEdges, err := intParam(q.Get("max_edges"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad max_edges: %w", err))
		return
	}
	if boolParam(q.Get("replica")) && s.replicaPatterns(w, r, k, minEdges, maxEdges) {
		return
	}
	top := snap.topK(k, minEdges, maxEdges)
	out := make([]patternJSON, len(top))
	for i, r := range top {
		out[i] = patternToJSON(r.Key, r.P, withTIDs)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    snap.Epoch,
		"total":    snap.PatternCount(),
		"patterns": out,
	})
}

// maxBatchQueries bounds one batched /v1/contains request.
const maxBatchQueries = 256

func (s *Server) handleContains(w http.ResponseWriter, r *http.Request) {
	gs, batched, err := queryGraphs(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(gs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("no query graphs in request body"))
		return
	}
	if len(gs) > maxBatchQueries {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d query graphs exceeds the %d limit", len(gs), maxBatchQueries))
		return
	}
	snap := s.Snapshot()
	if !batched {
		if boolParam(r.URL.Query().Get("replica")) && s.replicaContains(w, r, gs[0]) {
			return
		}
		tids, st := snap.Contains(gs[0])
		if tids == nil {
			tids = []int{}
		}
		out := map[string]any{
			"epoch":   snap.Epoch,
			"support": len(tids),
			"tids":    tids,
			"stats":   containsStatsJSON(st),
		}
		traceInline(r, out)
		writeJSON(w, http.StatusOK, out)
		return
	}
	all, sts := snap.ContainsBatch(gs)
	results := make([]map[string]any, len(gs))
	for i := range gs {
		tids := all[i]
		if tids == nil {
			tids = []int{}
		}
		results[i] = map[string]any{
			"support": len(tids),
			"tids":    tids,
			"stats":   containsStatsJSON(sts[i]),
		}
	}
	out := map[string]any{
		"epoch":   snap.Epoch,
		"count":   len(results),
		"results": results,
	}
	traceInline(r, out)
	writeJSON(w, http.StatusOK, out)
}

// handleCluster reports the coordinator's fleet state. 404 when the
// server runs without a cluster, so probes can distinguish "no cluster"
// from "cluster with zero workers".
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	if cl == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("server runs without a cluster"))
		return
	}
	info := cl.Info(s.Snapshot().Res.Options.K)
	out := map[string]any{
		"members":  info.Members,
		"alive":    info.Alive,
		"units":    info.Units,
		"replicas": info.Replicas,
		"counters": info.Counters,
	}
	if err := cl.Err(); err != nil {
		out["degraded"] = err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// replicaPatterns tries to answer a pattern list from a cluster snapshot
// replica; false means the caller should answer locally (no cluster, no
// live replica, or the replica read failed — replica reads are an
// offload, never a point of failure).
func (s *Server) replicaPatterns(w http.ResponseWriter, r *http.Request, k, minEdges, maxEdges int) bool {
	cl := s.cfg.Cluster
	if cl == nil {
		return false
	}
	reply, err := cl.ReadTopK(r.Context(), k, minEdges, maxEdges)
	if err != nil {
		s.logger.Warn("replica pattern read failed; answering locally", "err", err)
		return false
	}
	out := make([]map[string]any, len(reply.Patterns))
	for i, p := range reply.Patterns {
		out[i] = map[string]any{"key": p.Key, "support": p.Support, "size": p.Size}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    reply.Epoch,
		"replica":  true,
		"patterns": out,
	})
	return true
}

// replicaContains tries to answer one containment query from a cluster
// snapshot replica, with the same local-fallback contract as
// replicaPatterns.
func (s *Server) replicaContains(w http.ResponseWriter, r *http.Request, g *graph.Graph) bool {
	cl := s.cfg.Cluster
	if cl == nil {
		return false
	}
	var buf strings.Builder
	if err := graph.WriteDatabase(&buf, graph.Database{g}); err != nil {
		return false
	}
	reply, err := cl.ReadContains(r.Context(), []byte(buf.String()))
	if err != nil {
		s.logger.Warn("replica contains read failed; answering locally", "err", err)
		return false
	}
	tids := reply.TIDs
	if tids == nil {
		tids = []int{}
	}
	out := map[string]any{
		"epoch":   reply.Epoch,
		"replica": true,
		"support": reply.Support,
		"tids":    tids,
	}
	traceInline(r, out)
	writeJSON(w, http.StatusOK, out)
	return true
}

func containsStatsJSON(st query.Stats) map[string]int {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return map[string]int{
		"candidates": st.Candidates,
		"sig_pruned": st.SigPruned,
		"verified":   st.Verified,
		"plan_hit":   b2i(st.PlanHit),
		"cache_hit":  b2i(st.CacheHit),
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ops []Op `json:"ops"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad update request: %w", err))
		return
	}
	apply := s.Apply
	if boolParam(r.URL.Query().Get("trace")) {
		apply = s.ApplyTraced
	}
	res, err := apply(r.Context(), req.Ops)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case err == ErrClosed:
		httpError(w, http.StatusServiceUnavailable, err)
	case r.Context().Err() != nil:
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

// queryGraphs extracts the containment queries from a /v1/contains body.
// Accepted shapes: raw graph text (one graph = the legacy single-query
// request, several graphs = a batch), a {"graph": "..."} JSON wrapper
// (single), or a {"graphs": ["...", ...]} JSON wrapper (always treated
// as a batch, even with one entry). The second result reports whether
// the response should use the batched shape.
func queryGraphs(r *http.Request) ([]*graph.Graph, bool, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return nil, false, err
	}
	texts := []string{string(body)}
	batched := false
	if trimmed := strings.TrimSpace(string(body)); strings.HasPrefix(trimmed, "{") {
		var req struct {
			Graph  string   `json:"graph"`
			Graphs []string `json:"graphs"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, false, fmt.Errorf("bad JSON body: %w", err)
		}
		if len(req.Graphs) > 0 {
			if req.Graph != "" {
				return nil, false, fmt.Errorf(`request must use "graph" or "graphs", not both`)
			}
			texts, batched = req.Graphs, true
		} else {
			texts = []string{req.Graph}
		}
	}
	var gs []*graph.Graph
	for i, text := range texts {
		parsed, err := graph.ParseDatabase(text)
		if err != nil {
			return nil, false, fmt.Errorf("bad query graph %d: %w", i, err)
		}
		gs = append(gs, parsed...)
	}
	if len(gs) > 1 {
		batched = true
	}
	return gs, batched, nil
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func boolParam(s string) bool {
	return s == "1" || s == "true" || s == "yes"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
