package cluster

// workermetrics.go: the worker's own observability surface. Every Worker
// owns an obs.Registry mapping its shard activity — unit mines, warm-
// cache answers, snapshot stores, replica reads — onto partworker_*
// instruments. The registry serves directly at the partworker
// -metrics-addr endpoint and its Gather() snapshot piggybacks on
// heartbeats so the coordinator can federate the same series (renamed
// partserve_worker_*, labeled by worker id) on its /metrics.

import (
	"time"

	"partminer/internal/obs"
)

// workerMetrics bundles the worker registry and its instruments.
type workerMetrics struct {
	registry *obs.Registry

	unitMine      *obs.Histogram    // full (non-warm) unit mine latency
	snapshotStore *obs.Histogram    // replica snapshot load+index latency
	replicaRead   *obs.HistogramVec // replica read latency by op (topk/contains)
	unitsMined    *obs.Counter
	warmHits      *obs.Counter
	tracedOps     *obs.Counter
}

func newWorkerMetrics(w *Worker) *workerMetrics {
	r := obs.NewRegistry("partworker_")
	m := &workerMetrics{
		registry: r,
		unitMine: r.Histogram("partworker_unit_mine_seconds",
			"Latency of unit mines executed on this worker (warm-cache answers excluded).", nil),
		snapshotStore: r.Histogram("partworker_snapshot_store_seconds",
			"Latency of loading and indexing a replicated serving snapshot.", nil),
		replicaRead: r.HistogramVec("partworker_replica_read_seconds",
			"Latency of replica reads served by this worker.", "op", nil),
		unitsMined: r.RegisterCounter("partworker_units_mined_total",
			"Units mined on this worker (warm-cache answers excluded)."),
		warmHits: r.RegisterCounter("partworker_warm_hits_total",
			"Unit mines answered from the warm per-unit cache."),
		tracedOps: r.RegisterCounter("partworker_traced_ops_total",
			"Shard RPCs executed under a propagated distributed trace."),
	}
	start := time.Now()
	r.GaugeFunc("partworker_uptime_seconds",
		"Seconds since this worker process started serving.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("partworker_snapshot_epoch",
		"Epoch of the snapshot replica held by this worker (0 = none).",
		func() float64 { return float64(w.SnapshotEpoch()) })
	return m
}

// Registry exposes the worker's metric registry so cmd/partworker can
// serve it at -metrics-addr.
func (w *Worker) Registry() *obs.Registry { return w.metrics.registry }
