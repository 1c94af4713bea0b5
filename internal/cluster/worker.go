package cluster

// worker.go: the worker half of the cluster. A Worker serves the
// "Shard" RPC service (unit mining with a warm per-unit cache, snapshot
// replica storage, replica reads) — all a statically dialed fleet
// (Dial) needs of it. Join adds the client half of the membership
// protocol on top: register with a coordinator and send heartbeats until
// Close.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"partminer/internal/codec"
	"partminer/internal/core"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/obs"
	"partminer/internal/pattern"
	"partminer/internal/query"
	"partminer/internal/remote"
)

// DefaultHeartbeat is the worker heartbeat period when none is set.
const DefaultHeartbeat = 2 * time.Second

// warmEntry caches one unit's mined pattern set: if the same unit key
// comes back with the same database and parameters (fingerprint), the
// worker answers without re-mining. One entry per unit key bounds the
// cache at the partition width.
type warmEntry struct {
	fingerprint uint64
	set         []byte
}

// replicaState is a loaded snapshot replica: the database, its result,
// and a containment index, ready to answer TopK/Contains reads.
type replicaState struct {
	epoch  uint64
	db     graph.Database
	res    *core.Result
	search *query.Index
}

// Worker mines partition units shipped by the coordinator and holds
// snapshot replicas. Configure the exported fields, then Serve (RPC) and,
// for a joined fleet, Join (membership); Close stops the heartbeat loop.
type Worker struct {
	// ID is the worker's stable ring identity. A restarted worker that
	// keeps its ID reclaims exactly its old units.
	ID string
	// Advertise is the "host:port" workers hand to the coordinator for
	// Shard RPCs (the listener address in tests, a routable address in
	// deployments).
	Advertise string
	// Heartbeat is the beacon period; 0 selects DefaultHeartbeat.
	Heartbeat time.Duration

	metrics *workerMetrics

	mu      sync.Mutex
	warm    map[string]warmEntry
	replica *replicaState

	srv remote.Server

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
	coord    *remote.Conn
}

// NewWorker returns a worker with the given ring identity.
func NewWorker(id string) *Worker {
	w := &Worker{
		ID:   id,
		warm: make(map[string]warmEntry),
		stop: make(chan struct{}),
	}
	w.metrics = newWorkerMetrics(w)
	return w
}

// Serve exposes the Shard service on l until the listener closes.
func (w *Worker) Serve(l net.Listener) error {
	if w.Advertise == "" {
		w.Advertise = l.Addr().String()
	}
	return w.srv.Serve(l, "Shard", &shardService{w})
}

// Sever drops every live Shard connection (see remote.Server.Sever).
func (w *Worker) Sever() { w.srv.Sever() }

// Join registers with the coordinator at coordAddr and starts the
// heartbeat loop. The connection redials lazily, so a coordinator
// restart only costs missed beats, and an unknown-ID reply triggers
// re-registration (the coordinator lost its membership state).
func (w *Worker) Join(coordAddr string) error {
	w.coord = remote.NewConn(coordAddr)
	if err := w.register(); err != nil {
		return err
	}
	interval := w.Heartbeat
	if interval <= 0 {
		interval = DefaultHeartbeat
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.beat()
			}
		}
	}()
	return nil
}

func (w *Worker) register() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var reply RegisterReply
	args := RegisterArgs{ID: w.ID, Addr: w.Advertise}
	return w.coord.Call(ctx, "Coordinator.Register", args, &reply, nil)
}

func (w *Worker) beat() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	args := HeartbeatArgs{
		ID:       w.ID,
		Mined:    w.metrics.unitsMined.Value(),
		WarmHits: w.metrics.warmHits.Value(),
		Metrics:  w.metrics.registry.Gather(),
	}
	var reply HeartbeatReply
	if err := w.coord.Call(ctx, "Coordinator.Heartbeat", args, &reply, nil); err != nil {
		return // coordinator unreachable; the Conn redials on the next beat
	}
	if !reply.Known {
		w.register() //nolint:errcheck // retried on the next beat
	}
}

// Close stops the heartbeat loop and releases the coordinator
// connection. The Shard listener is owned by the caller.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
	if w.coord != nil {
		w.coord.Close()
	}
}

// traceRPC is the worker half of trace propagation: when the request
// carries a trace id it starts a worker-local tracer under that id, with
// the op span installed as the context's active span *and* ambient
// observer, so everything the handler runs (gaston stage ends, counters)
// aggregates into the span exactly as a local hot stage would. done
// finishes the trace and serializes its tree into *out for the reply.
// With no trace id it returns ctx unchanged and a nil done — the
// untraced path costs one string compare.
func (w *Worker) traceRPC(ctx context.Context, traceID, op string) (context.Context, func(out *[]byte)) {
	if traceID == "" {
		return ctx, nil
	}
	tracer := obs.NewTracerID("worker."+w.ID, traceID)
	sp := tracer.Root().StartChild(op)
	ctx = obs.ObserverInContext(obs.WithSpan(ctx, sp), nil)
	w.metrics.tracedOps.Inc()
	return ctx, func(out *[]byte) {
		sp.End()
		tracer.Finish()
		if b, err := obs.EncodeNode(tracer.Tree()); err == nil {
			*out = b
		}
	}
}

// unitFingerprint digests a mine request's inputs — the database frame,
// deterministic, and the parameters — so the warm cache can prove a
// request identical.
func unitFingerprint(args *MineUnitArgs) uint64 {
	h := fnv.New64a()
	h.Write(args.DB)
	fmt.Fprintf(h, "|%d|%d", args.MinSupport, args.MaxEdges)
	return h.Sum64()
}

// mineUnitDB mines a unit database with a request's parameters, under its
// shipped deadline: the one place the cluster runs a unit miner, for a
// worker's Shard.MineUnit and the coordinator's local fallback alike.
func mineUnitDB(ctx context.Context, db graph.Database, args *MineUnitArgs) (pattern.Set, error) {
	if args.DeadlineUnixMilli > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(args.DeadlineUnixMilli))
		defer cancel()
	}
	set, err := gaston.MineContext(ctx, db, gaston.Options{MinSupport: args.MinSupport, MaxEdges: args.MaxEdges})
	if err != nil {
		return nil, fmt.Errorf("cluster: mine unit: %w", err)
	}
	return set, nil
}

// mineUnit answers one unit mine, from the warm cache when the unit is
// unchanged since its last mine here.
func (w *Worker) mineUnit(args MineUnitArgs, reply *MineUnitReply) error {
	ctx, done := w.traceRPC(context.Background(), args.TraceID, "mine."+args.UnitKey)
	if done != nil {
		defer done(&reply.TraceJSON)
	}
	fp := unitFingerprint(&args)
	if args.UnitKey != "" {
		w.mu.Lock()
		if e, ok := w.warm[args.UnitKey]; ok && e.fingerprint == fp {
			reply.Set = e.set
			reply.Warm = true
			w.mu.Unlock()
			w.metrics.warmHits.Inc()
			obs.SpanFrom(ctx).Count("warm", 1)
			return nil
		}
		w.mu.Unlock()
	}

	start := time.Now()
	db, err := codec.DecodeDatabase(args.DB)
	if err != nil {
		return fmt.Errorf("cluster: unit database: %w", err)
	}
	set, err := mineUnitDB(ctx, db, &args)
	if err != nil {
		return err
	}
	if reply.Set, err = codec.EncodeSet(set); err != nil {
		return err
	}
	if args.UnitKey != "" {
		w.mu.Lock()
		w.warm[args.UnitKey] = warmEntry{fingerprint: fp, set: reply.Set}
		w.mu.Unlock()
	}
	w.metrics.unitsMined.Inc()
	w.metrics.unitMine.ObserveDuration(time.Since(start))
	return nil
}

// storeSnapshot loads a replicated serving snapshot and builds the
// replica read path (feature index + containment index) from it.
func (w *Worker) storeSnapshot(args StoreSnapshotArgs, reply *StoreSnapshotReply) error {
	start := time.Now()
	defer func() { w.metrics.snapshotStore.ObserveDuration(time.Since(start)) }()
	db, res, err := core.LoadSnapshot(bytes.NewReader(args.Snapshot))
	if err != nil {
		return fmt.Errorf("cluster: load replica snapshot: %w", err)
	}
	fx := index.Build(db)
	search := query.IndexFromPatterns(db, fx, res.Patterns, query.IndexOptions{})
	w.mu.Lock()
	w.replica = &replicaState{epoch: args.Epoch, db: db, res: res, search: search}
	w.mu.Unlock()
	reply.Patterns = len(res.Patterns)
	return nil
}

// getReplica returns the current replica or an error when none is held.
func (w *Worker) getReplica() (*replicaState, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.replica == nil {
		return nil, fmt.Errorf("cluster: worker %s holds no snapshot replica", w.ID)
	}
	return w.replica, nil
}

// topK answers a replica pattern read in the snapshot's total order
// (support descending, canonical key ascending — the same order the
// coordinator's own /v1/patterns uses, so replica reads are
// indistinguishable modulo epoch).
func (w *Worker) topK(args TopKArgs, reply *TopKReply) error {
	ctx, done := w.traceRPC(context.Background(), args.TraceID, "replica.topk")
	if done != nil {
		defer done(&reply.TraceJSON)
	}
	start := time.Now()
	defer func() { w.metrics.replicaRead.With("topk").ObserveDuration(time.Since(start)) }()
	rep, err := w.getReplica()
	if err != nil {
		return err
	}
	obs.SpanFrom(ctx).Count("patterns", int64(len(rep.res.Patterns)))
	out := make([]PatternInfo, 0, len(rep.res.Patterns))
	for key, p := range rep.res.Patterns {
		if p.Size() < args.MinEdges || (args.MaxEdges > 0 && p.Size() > args.MaxEdges) {
			continue
		}
		out = append(out, PatternInfo{Key: key, Support: p.Support, Size: p.Size()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Key < out[j].Key
	})
	if args.K > 0 && len(out) > args.K {
		out = out[:args.K]
	}
	reply.Epoch = rep.epoch
	reply.Patterns = out
	return nil
}

// contains answers a replica containment read.
func (w *Worker) contains(args ContainsArgs, reply *ContainsReply) error {
	ctx, done := w.traceRPC(context.Background(), args.TraceID, "replica.contains")
	if done != nil {
		defer done(&reply.TraceJSON)
	}
	start := time.Now()
	defer func() { w.metrics.replicaRead.With("contains").ObserveDuration(time.Since(start)) }()
	rep, err := w.getReplica()
	if err != nil {
		return err
	}
	qdb, err := graph.ReadDatabase(bytes.NewReader(args.QueryText))
	if err != nil || len(qdb) != 1 {
		return fmt.Errorf("cluster: contains wants exactly one query graph")
	}
	tids, _ := rep.search.Find(qdb[0])
	obs.SpanFrom(ctx).Count("matches", int64(len(tids)))
	reply.Epoch = rep.epoch
	reply.Support = len(tids)
	reply.TIDs = tids
	return nil
}

// SnapshotEpoch reports the epoch of the held replica (0 = none), for
// tests and status.
func (w *Worker) SnapshotEpoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.replica == nil {
		return 0
	}
	return w.replica.epoch
}

// shardService is the net/rpc receiver: a separate type so only the RPC
// methods are exported to the wire (registering Worker itself would spam
// "wrong number of ins" warnings for Serve/Join/Close).
type shardService struct{ w *Worker }

func (s *shardService) MineUnit(args MineUnitArgs, reply *MineUnitReply) error {
	return s.w.mineUnit(args, reply)
}

func (s *shardService) StoreSnapshot(args StoreSnapshotArgs, reply *StoreSnapshotReply) error {
	return s.w.storeSnapshot(args, reply)
}

func (s *shardService) TopK(args TopKArgs, reply *TopKReply) error {
	return s.w.topK(args, reply)
}

func (s *shardService) Contains(args ContainsArgs, reply *ContainsReply) error {
	return s.w.contains(args, reply)
}
