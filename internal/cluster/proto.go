package cluster

import "partminer/internal/obs"

// proto.go: the wire types of the two cluster RPC services.
//
//   - "Coordinator" (exposed by the coordinator, called by workers):
//     Register, Heartbeat.
//   - "Shard" (exposed by every worker, called by the coordinator):
//     MineUnit, StoreSnapshot, TopK, Contains.
//
// Databases, pattern sets and snapshots travel as internal/codec frames,
// versioned and checksummed, so a payload damaged in transit is refused,
// not misread. A replica query is one graph in the gSpan text format, the
// service's input format.
//
// Distributed tracing rides the same messages: work requests carry a
// TraceID when the coordinator-side call is being traced ("" otherwise,
// and the worker then does zero tracing work), and replies to traced
// requests carry the worker's span subtree as TraceJSON (obs.EncodeNode)
// for the coordinator to graft into its live trace.

// RegisterArgs announces a worker to the coordinator.
type RegisterArgs struct {
	// ID is the worker's stable identity. Units are placed in id order and
	// a dead member keeps its place, so a worker that restarts under the
	// same ID gets exactly its old units back.
	ID string
	// Addr is the worker's advertised "host:port" for Shard RPCs.
	Addr string
}

// RegisterReply acknowledges a registration.
type RegisterReply struct {
	// Members is the fleet size after the registration.
	Members int
}

// HeartbeatArgs is a worker liveness beacon.
type HeartbeatArgs struct {
	ID string
	// Mined lets the coordinator surface per-worker progress in
	// /v1/cluster without a separate status poll.
	Mined int64
	// Metrics is the worker's full registry snapshot (obs.Registry.Gather),
	// piggybacked on the beat so the coordinator can federate
	// partserve_worker_* series on /metrics without a scrape fan-out.
	Metrics []obs.Sample
}

// HeartbeatReply acknowledges a heartbeat.
type HeartbeatReply struct {
	// Known is false when the coordinator does not know the ID (it
	// restarted, or the worker was expelled); the worker must re-register.
	Known bool
}

// MineUnitArgs ships one partition unit to a worker. It is the whole
// input of the mine: the worker keeps nothing between requests.
type MineUnitArgs struct {
	// UnitKey names the unit ("unit-<i>") in the worker's trace spans.
	UnitKey string
	// DB is the unit database as a codec database frame.
	DB []byte
	// MinSupport and MaxEdges configure the unit mine.
	MinSupport int
	MaxEdges   int
	// DeadlineUnixMilli bounds the remote mine (Unix ms; 0 = none).
	DeadlineUnixMilli int64
	// TraceID, when non-empty, asks the worker to trace the mine under
	// this distributed trace id and return the span subtree.
	TraceID string
}

// MineUnitReply carries the unit's frequent patterns.
type MineUnitReply struct {
	// Set is the unit's frequent patterns as a codec set frame.
	Set []byte
	// TraceJSON is the worker-side span subtree (obs.EncodeNode) of a
	// traced mine; empty when the request carried no TraceID.
	TraceJSON []byte
}

// StoreSnapshotArgs replicates a mined serving snapshot to a worker.
type StoreSnapshotArgs struct {
	// Snapshot is the core.SaveSnapshot frame (database + result); the
	// worker rebuilds its replica read path from it.
	Snapshot []byte
	// Epoch is the coordinator's epoch for this snapshot; replies to
	// replica reads echo it so callers can detect stale replicas.
	Epoch uint64
}

// StoreSnapshotReply acknowledges a replication.
type StoreSnapshotReply struct {
	// Patterns is the replica's pattern count after loading — a cheap
	// end-to-end check that the snapshot survived the trip.
	Patterns int
}

// TopKArgs asks a replica for its top-k patterns by support.
type TopKArgs struct {
	K        int
	MinEdges int
	MaxEdges int
	// TraceID, when non-empty, asks for a traced read (see MineUnitArgs).
	TraceID string
}

// PatternInfo is one pattern in a replica read reply.
type PatternInfo struct {
	Key     string
	Support int
	Size    int
}

// TopKReply is the replica's answer plus the epoch it answered from.
type TopKReply struct {
	Epoch     uint64
	Patterns  []PatternInfo
	TraceJSON []byte
}

// ContainsArgs asks a replica which database graphs contain a query.
type ContainsArgs struct {
	// QueryText is one graph in the gSpan text format.
	QueryText []byte
	// TraceID, when non-empty, asks for a traced read (see MineUnitArgs).
	TraceID string
}

// ContainsReply is the replica's containment answer.
type ContainsReply struct {
	Epoch     uint64
	Support   int
	TIDs      []int
	TraceJSON []byte
}
