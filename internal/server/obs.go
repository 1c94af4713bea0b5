package server

// obs.go: the server's observability surface — the one metric registry
// behind /metrics and /v1/stats, and the slow-operation journal behind
// /v1/debug/slow.
//
// The registry is the server's member of the exec.Observer fan-out, so
// every stage and counter a mining layer, the query path or the cluster
// coordinator reports is accumulated there once. /v1/stats renders it by
// seam name (obs.View); /metrics renders the same instruments under
// derived names: the partserve_ prefix, dots as underscores, _seconds for
// a stage (a histogram), _total for a counter — merge.verify is
// partserve_merge_verify_seconds, plan.hit partserve_plan_hit_total, and
// likewise vf2.match, plan.find, cluster.rpc, partition, units, merge,
// index.build, gaston.* and every merge.*, plan.*, query.*, index.*,
// vf2.*, cluster.*, units.* counter that has fired.
// One rule is irregular: the per-unit stages unit.<i> share
// partserve_unit_mine_seconds.
//
// Series registered by name, here or in server.go:
//
//	partserve_http_request_seconds{endpoint}  HTTP latency per endpoint
//	partserve_update_fold_seconds             update-batch fold latency
//	partserve_queries_total                   read queries served
//	partserve_updates_total                   update ops applied
//	partserve_epoch                           current snapshot epoch
//	partserve_uptime_seconds                  process uptime
//	partserve_partition_edge_cut_ratio        served partitioning's edge-cut ratio
//	partserve_partition_replication_factor    served partitioning's vertex replication
//	partserve_partition_unit_balance          max/mean unit edge count
//	partserve_partition_units                 number of partition units (K)
//	partserve_cluster_alive_workers           workers passing heartbeats
//	partserve_worker_*{worker="id"}           federated worker series: every
//	                                          partworker_* family from each
//	                                          live worker's registry, renamed
//	                                          and labeled by worker id
//	                                          (cluster mode only)

import (
	"fmt"
	"io"
	"strings"
	"time"

	"partminer/internal/cluster"
	"partminer/internal/obs"
)

// serverMetrics bundles the registry with the instruments the server
// feeds directly (requests, folds and applied ops are the server's own
// events, not reported through the seam).
type serverMetrics struct {
	registry    *obs.Registry
	httpLatency *obs.HistogramVec
	foldLatency *obs.Histogram
	queries     *obs.Counter
	updates     *obs.Counter
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry("partserve_")
	return &serverMetrics{
		registry:    r,
		httpLatency: r.HistogramVec("partserve_http_request_seconds", "HTTP request latency by endpoint.", "endpoint", nil),
		foldLatency: r.Histogram("partserve_update_fold_seconds", "Update-batch fold latency (staging, mining, snapshot swap).", nil),
		queries:     r.RegisterCounter("partserve_queries_total", "Read queries served (patterns, contains)."),
		updates:     r.RegisterCounter("partserve_updates_total", "Update ops applied."),
	}
}

// federateWorkers renders the cluster's cached per-worker registry
// samples as partserve_worker_* exposition series labeled by worker id —
// the OnScrape hook cluster-mode servers append to /metrics. Samples
// arrive on heartbeats, so a scrape is at most one beat stale and never
// fans out RPCs.
func federateWorkers(w io.Writer, cl *cluster.Coordinator) {
	ids, samples := cl.WorkerSamples()
	if len(ids) == 0 {
		return
	}
	// Families render grouped: HELP/TYPE once, then every worker's series.
	type family struct{ name, help, typ string }
	var order []family
	seen := make(map[string]bool)
	for _, id := range ids {
		for _, sm := range samples[id] {
			if !seen[sm.Name] {
				seen[sm.Name] = true
				order = append(order, family{sm.Name, sm.Help, sm.Type})
			}
		}
	}
	for _, f := range order {
		fed := federatedName(f.name)
		fmt.Fprintf(w, "# HELP %s %s\n", fed, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", fed, f.typ)
		for _, id := range ids {
			for _, sm := range samples[id] {
				if sm.Name == f.name {
					obs.WriteSampleSeries(w, fed, fmt.Sprintf("worker=%q", id), sm)
				}
			}
		}
	}
}

// federatedName maps a worker family onto the coordinator's namespace:
// partworker_unit_mine_seconds -> partserve_worker_unit_mine_seconds.
func federatedName(name string) string {
	if rest, ok := strings.CutPrefix(name, "partworker_"); ok {
		return "partserve_worker_" + rest
	}
	return "partserve_worker_" + obs.SanitizeName(name)
}

// observeRequest journals and logs one completed request; called by the
// endpoint middleware in http.go after the handler returns.
func (s *Server) observeRequest(endpoint string, isQuery bool, d time.Duration, tracer *obs.Tracer) {
	s.metrics.httpLatency.With(endpoint).ObserveDuration(d)
	if isQuery {
		s.metrics.queries.Inc()
	}
	if s.slow.Threshold() > 0 && d >= s.slow.Threshold() {
		s.slow.Record(obs.SlowEntry{
			Kind:     "http",
			Detail:   endpoint,
			TraceID:  tracer.ID(),
			Duration: d,
			Trace:    tracer.Tree(),
		})
		s.logger.Warn("slow request", "endpoint", endpoint, "duration", d, "trace_id", tracer.ID())
	}
}
