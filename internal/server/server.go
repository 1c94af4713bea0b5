package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partminer/internal/cluster"
	"partminer/internal/core"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/mergejoin"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/query"
)

// ErrClosed is returned by Apply once the server has shut down.
var ErrClosed = errors.New("server: closed")

// OpKind names one mutation in an update request. The vertex-level kinds
// mirror the paper's §5 update model (relabels and additions) plus the
// deletion extension; the graph-level kinds manage whole transactions.
type OpKind string

const (
	// OpAddVertex appends a vertex with Label to graph TID.
	OpAddVertex OpKind = "add_vertex"
	// OpAddEdge inserts edge (U, V) with Label into graph TID.
	OpAddEdge OpKind = "add_edge"
	// OpRemoveEdge deletes edge (U, V) from graph TID.
	OpRemoveEdge OpKind = "remove_edge"
	// OpRelabelVertex sets vertex U's label to Label in graph TID.
	OpRelabelVertex OpKind = "relabel_vertex"
	// OpRelabelEdge sets edge (U, V)'s label to Label in graph TID.
	OpRelabelEdge OpKind = "relabel_edge"
	// OpClearGraph replaces graph TID with an empty graph. Transaction
	// ids are positional, so "deleting" a graph must keep its slot; an
	// empty graph supports nothing and drops out of every pattern.
	OpClearGraph OpKind = "clear_graph"
	// OpReplaceGraph replaces graph TID with the single graph parsed
	// from Graph (database text form); the slot keeps its id.
	OpReplaceGraph OpKind = "replace_graph"
	// OpAddGraph appends the graph parsed from Graph as a new
	// transaction. Growing the database changes the partition shape, so
	// batches containing additions fall back to a full re-mine.
	OpAddGraph OpKind = "add_graph"
)

// Op is one mutation. Unused fields for a kind are ignored.
type Op struct {
	Kind  OpKind `json:"op"`
	TID   int    `json:"tid,omitempty"`
	U     int    `json:"u,omitempty"`
	V     int    `json:"v,omitempty"`
	Label int    `json:"label,omitempty"`
	Graph string `json:"graph,omitempty"`
}

// ApplyResult reports the fold that incorporated one Apply call.
type ApplyResult struct {
	// Epoch of the snapshot the ops landed in.
	Epoch uint64 `json:"epoch"`
	// Ops is the number of ops from this call that were applied.
	Ops int `json:"ops"`
	// Batched is the total op count of the whole folded batch (ops from
	// concurrent Apply calls coalesce into one mining round).
	Batched int `json:"batched"`
	// FullRemine is true when the batch was mined from scratch (graph
	// additions change the partition shape) rather than incrementally.
	FullRemine bool `json:"full_remine"`
	// Latency is the fold duration: staging, mining, index patch, and
	// snapshot construction (JSON: nanoseconds).
	Latency time.Duration `json:"latency_ns"`
	// RunID names the fold run that incorporated the ops ("fold-<seq>"),
	// matching the server's log lines and slow-journal entries.
	RunID string `json:"run_id,omitempty"`
	// TraceID is the fold trace's distributed trace id.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the fold's span tree — including spans grafted back from
	// cluster workers — returned only to traced applies (ApplyTraced, or
	// /v1/update?trace=1).
	Trace *obs.Node `json:"trace,omitempty"`
}

// Config configures Start.
type Config struct {
	// Mine holds the mining options (support threshold, K, criteria,
	// parallelism). Config's Observer field composes with Mine.Observer.
	Mine core.Options
	// BatchWindow is ignored: the update loop never lingers (see
	// MaxBatch). It stays only because the benchmark harness still sets
	// it, and goes when the harness next changes.
	BatchWindow time.Duration
	// MaxBatch caps the Apply calls coalesced per fold; default 256. A
	// fold takes every request already queued when it starts, up to
	// MaxBatch, with no timer (group commit): requests that arrive
	// during a fold ride the next one.
	MaxBatch int
	// QueueDepth is the update queue capacity; default 64.
	QueueDepth int
	// OnSwap, when non-nil, is called from the update loop with each
	// snapshot (including the initial one) just before it is published.
	// It runs synchronously with folding: keep it cheap or accept added
	// update latency. Used for autosave and consistency testing.
	OnSwap func(*Snapshot)
	// Observer receives execution events from every mining round, in
	// addition to the server's own registry. Optional.
	Observer exec.Observer
	// Logger receives the server's structured log stream (fold summaries,
	// slow operations) with run ids. Nil discards.
	Logger *slog.Logger
	// SlowThreshold is the duration above which operations (HTTP requests,
	// update folds) are journaled to the slow log with their span trees;
	// default 100ms, negative disables the journal.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-log ring capacity; default 64.
	SlowLogSize int
	// Cluster, when non-nil, runs the server in coordinator mode: unit
	// mining is sharded over the coordinator's worker fleet (unless Mine
	// already carries a custom miner), published snapshots are replicated
	// to workers, /v1/cluster reports the fleet, and pattern/containment
	// reads can be answered from replicas (?replica=1). The server
	// installs its merged observer on the coordinator, so cluster.*
	// counters and the cluster.rpc stage land in /v1/stats and /metrics.
	Cluster *cluster.Coordinator
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.SlowThreshold < 0 {
		c.SlowThreshold = 0 // journal disabled
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the PartServe service: one published Snapshot behind an
// atomic pointer, one writer goroutine folding updates. All exported
// methods are safe for concurrent use.
type Server struct {
	cfg  Config
	opts core.Options // cfg.Mine with the merged observer, normalized by first mine
	// search configures each snapshot's containment index: the merged
	// observer, so plan hits and VF2 match times land in the registry.
	search query.IndexOptions
	start  time.Time

	metrics *serverMetrics
	slow    *obs.SlowLog
	logger  *slog.Logger
	foldSeq atomic.Uint64 // fold run-id sequence

	snap atomic.Pointer[Snapshot]
	reqs chan *applyReq
	stop chan struct{} // closed by Close: loop drains and exits
	done chan struct{} // closed when the loop has exited

	closeOnce sync.Once

	mu sync.Mutex // guards the batch statistics
	bs batchStats
}

type batchStats struct {
	batches     int64
	opsRejected int64
	fullRemines int64
	lastOps     int
	last, total time.Duration
	max         time.Duration
}

type applyReq struct {
	ops []Op
	// traced asks the fold to attach its span tree to this request's
	// ApplyResult.
	traced bool
	done   chan applyResp
}

type applyResp struct {
	res ApplyResult
	err error
}

// Start mines db and launches the service. ctx bounds the initial mining
// run only; the running server is stopped with Close.
func Start(ctx context.Context, db graph.Database, cfg Config) (*Server, error) {
	s := newServer(cfg)
	res, err := core.MineContext(ctx, db, s.opts)
	if err != nil {
		return nil, err
	}
	s.opts = res.Options // normalized (defaults resolved) for later folds
	return s.launch(db, res), nil
}

// Restore launches the service from a previously mined result (the
// `partserved -restore` warm start: no initial mining run). res must have
// been produced against db; its feature index is rebuilt if absent (the
// snapshot file does not store it). The result's own mining options are
// used, with cfg's observers attached.
func Restore(ctx context.Context, db graph.Database, res *core.Result, cfg Config) (*Server, error) {
	if res == nil || res.Tree == nil {
		return nil, fmt.Errorf("server: restore requires a result with its partition tree")
	}
	s := newServer(cfg)
	// Work on a shallow copy: the caller's result must not adopt our
	// observers or index.
	own := *res
	own.Options.Observer = s.mergedObserver(own.Options.Observer)
	// Loaded results carry no miner function (it is not serializable),
	// so later full re-mines would silently drop back to local mining.
	// Re-adopt the configured miner — including the cluster coordinator
	// newServer wired into s.opts — for the restored options.
	if own.Options.UnitMinerIndexed == nil {
		own.Options.UnitMinerIndexed = s.opts.UnitMinerIndexed
	}
	if own.Index == nil {
		fx, err := index.BuildContext(ctx, db, own.Options.Observer)
		if err != nil {
			return nil, err
		}
		own.Index = fx
	}
	s.opts = own.Options
	return s.launch(db, &own), nil
}

func newServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newServerMetrics(),
		start:   time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.slow = obs.NewSlowLog(s.cfg.SlowLogSize, s.cfg.SlowThreshold)
	s.logger = s.cfg.Logger
	s.reqs = make(chan *applyReq, s.cfg.QueueDepth)
	s.opts = s.cfg.Mine
	s.opts.Observer = s.mergedObserver(s.opts.Observer)
	s.search = query.IndexOptions{Observer: s.mergedObserver(nil)}
	// Exposition-time gauges: read the live server state at scrape.
	s.metrics.registry.GaugeFunc("partserve_epoch", "Current snapshot epoch.", func() float64 {
		if snap := s.snap.Load(); snap != nil {
			return float64(snap.Epoch)
		}
		return 0
	})
	s.metrics.registry.GaugeFunc("partserve_uptime_seconds", "Process uptime.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	// Partition-quality gauges read the served snapshot at scrape time, so
	// /metrics always describes the partitioning actually answering queries.
	obs.PartitionQualityGauges(s.metrics.registry, func() *partition.Quality {
		if snap := s.snap.Load(); snap != nil {
			return &snap.Res.PartitionQuality
		}
		return nil
	})
	if cl := s.cfg.Cluster; cl != nil {
		// Route cluster.* counters and the cluster.rpc stage through the
		// same reporting stack as the mining seam.
		cl.SetObserver(s.mergedObserver(nil))
		// Shard unit mining over the fleet, unless the caller already
		// supplied a custom miner.
		if s.opts.UnitMinerIndexed == nil {
			s.opts.UnitMinerIndexed = cl.MineUnit
		}
		s.metrics.registry.GaugeFunc("partserve_cluster_alive_workers",
			"Workers currently passing heartbeats.", func() float64 {
				return float64(cl.AliveMembers())
			})
		// Federate worker registries: every heartbeat-delivered
		// partworker_* sample re-renders on /metrics as
		// partserve_worker_*{worker="id"}.
		s.metrics.registry.OnScrape(func(w io.Writer) { federateWorkers(w, cl) })
	}
	return s
}

// mergedObserver fans a caller-supplied observer out to the server's
// full reporting stack: the caller's own observer, the config observer,
// and the registry that /v1/stats and /metrics render.
func (s *Server) mergedObserver(own exec.Observer) exec.Observer {
	return exec.Multi(own, s.cfg.Observer, s.metrics.registry)
}

func (s *Server) launch(db graph.Database, res *core.Result) *Server {
	snap := s.makeSnapshot(1, db, res)
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(snap)
	}
	s.snap.Store(snap)
	s.replicate(snap)
	go s.loop()
	return s
}

// replicate ships a published snapshot to the coordinator's replica
// workers. Replication is best-effort: serving never waits on it beyond
// this synchronous call (which keeps epochs ordered — the fold loop is
// the only caller after launch), and failures only log, because every
// read has the local snapshot to fall back on.
func (s *Server) replicate(snap *Snapshot) {
	cl := s.cfg.Cluster
	if cl == nil {
		return
	}
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, snap.Res.Portable()); err != nil {
		s.logger.Warn("replication skipped: snapshot not serializable", "epoch", snap.Epoch, "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Replicate(ctx, buf.Bytes(), snap.Epoch); err != nil {
		s.logger.Warn("replication failed", "epoch", snap.Epoch, "err", err)
	}
}

func (s *Server) makeSnapshot(epoch uint64, db graph.Database, res *core.Result) *Snapshot {
	return &Snapshot{
		Epoch:   epoch,
		DB:      db,
		Res:     res,
		Index:   res.Index,
		Search:  query.IndexFromPatterns(db, res.Index, res.Patterns, s.search),
		Created: time.Now(),
	}
}

// Snapshot returns the current published snapshot. The read path: load
// once, answer everything from it.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Apply submits ops as one atomic unit and blocks until a snapshot
// containing them is published (or ctx is done / the server closes). All
// ops succeed together or the whole call is rejected without effect;
// independent Apply calls queued concurrently may be folded — and thus
// mined — together in one batch.
func (s *Server) Apply(ctx context.Context, ops []Op) (ApplyResult, error) {
	return s.apply(ctx, ops, false)
}

// ApplyTraced is Apply with the fold's span tree (including spans
// grafted from cluster workers) attached to the result — the engine
// behind /v1/update?trace=1.
func (s *Server) ApplyTraced(ctx context.Context, ops []Op) (ApplyResult, error) {
	return s.apply(ctx, ops, true)
}

func (s *Server) apply(ctx context.Context, ops []Op, traced bool) (ApplyResult, error) {
	if len(ops) == 0 {
		return ApplyResult{Epoch: s.Snapshot().Epoch}, nil
	}
	req := &applyReq{ops: ops, traced: traced, done: make(chan applyResp, 1)}
	select {
	case s.reqs <- req:
	case <-s.stop:
		return ApplyResult{}, ErrClosed
	case <-ctx.Done():
		return ApplyResult{}, ctx.Err()
	}
	select {
	case resp := <-req.done:
		return resp.res, resp.err
	case <-ctx.Done():
		return ApplyResult{}, ctx.Err()
	case <-s.done:
		// The loop exited while our request was queued; the shutdown
		// drain answers everything it saw, so give that answer priority.
		select {
		case resp := <-req.done:
			return resp.res, resp.err
		default:
			return ApplyResult{}, ErrClosed
		}
	}
}

// Close stops the update loop after draining already-queued requests and
// waits for it to exit. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

// loop is the single writer: it owns every mutation of the database and
// the published snapshot pointer.
func (s *Server) loop() {
	defer close(s.done)
	for {
		select {
		case req := <-s.reqs:
			s.fold(s.gather(req))
		case <-s.stop:
			for {
				select {
				case req := <-s.reqs:
					s.fold(s.gather(req))
				default:
					return
				}
			}
		}
	}
}

// gather coalesces the requests already queued behind first into one
// batch, up to MaxBatch, without waiting for more (group commit): one
// mining round amortizes over whatever queued up during the last fold.
func (s *Server) gather(first *applyReq) []*applyReq {
	batch := []*applyReq{first}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req := <-s.reqs:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// fold applies one batch to a copy-on-write database, re-mines, and
// publishes the next snapshot. Every fold runs under its own trace whose
// root span rides the mining context, so the phase spans core opens
// (partition / unit.<i> / merge) attribute the fold's cost; slow folds
// land in the journal with the full tree.
func (s *Server) fold(batch []*applyReq) {
	t0 := time.Now()
	cur := s.snap.Load()
	runID := fmt.Sprintf("fold-%d", s.foldSeq.Add(1))
	tracer := obs.NewTracer(runID)
	ctx := obs.WithSpan(context.Background(), tracer.Root())

	// Copy-on-write staging: the slice is copied, graphs are cloned only
	// when touched. Graphs the batch never touches stay shared with the
	// published snapshot.
	db := append(graph.Database(nil), cur.DB...)
	updated := make(map[int]bool)
	appended := false
	var accepted []*applyReq
	var batched int

	for _, req := range batch {
		if err := s.stage(&db, updated, &appended, req.ops); err != nil {
			// Counted before the reply, so a client that reads /v1/stats
			// after its 400 sees its rejected ops.
			s.mu.Lock()
			s.bs.opsRejected += int64(len(req.ops))
			s.mu.Unlock()
			req.done <- applyResp{err: err}
			continue
		}
		accepted = append(accepted, req)
		batched += len(req.ops)
	}
	if len(accepted) == 0 {
		return
	}

	res, fullRemine, err := s.mine(ctx, cur, db, updated, appended)
	if err != nil {
		s.logger.Error("fold failed", "run_id", runID, "ops", batched, "err", err)
		s.mu.Lock()
		s.bs.opsRejected += int64(batched)
		s.mu.Unlock()
		for _, req := range accepted {
			req.done <- applyResp{err: err}
		}
		return
	}

	next := s.makeSnapshot(cur.Epoch+1, db, res)
	latency := time.Since(t0)
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(next)
	}
	s.snap.Store(next)

	tracer.Finish()
	// The tree is built once and shared: the slow journal and every traced
	// request in the batch see the same immutable snapshot of the trace.
	var tree *obs.Node
	treeOf := func() *obs.Node {
		if tree == nil {
			tree = tracer.Tree()
		}
		return tree
	}
	s.metrics.foldLatency.ObserveDuration(latency)
	s.metrics.updates.Add(int64(batched))
	s.logger.Info("fold published", "run_id", runID, "epoch", next.Epoch,
		"ops", batched, "full_remine", fullRemine, "trace_id", tracer.ID(), "duration", latency)
	if s.slow.Record(obs.SlowEntry{
		Kind:     "fold",
		Detail:   runID,
		RunID:    runID,
		TraceID:  tracer.ID(),
		Duration: latency,
		Counters: map[string]int64{"ops": int64(batched), "epoch": int64(next.Epoch)},
		Trace:    treeOf(),
	}) {
		s.logger.Warn("slow fold", "run_id", runID, "duration", latency)
	}

	s.mu.Lock()
	s.bs.batches++
	if fullRemine {
		s.bs.fullRemines++
	}
	s.bs.lastOps = batched
	s.bs.last = latency
	s.bs.total += latency
	if latency > s.bs.max {
		s.bs.max = latency
	}
	s.mu.Unlock()

	for _, req := range accepted {
		res := ApplyResult{
			Epoch:      next.Epoch,
			Ops:        len(req.ops),
			Batched:    batched,
			FullRemine: fullRemine,
			Latency:    latency,
			RunID:      runID,
			TraceID:    tracer.ID(),
		}
		if req.traced {
			res.Trace = treeOf()
		}
		req.done <- applyResp{res: res}
	}

	// Replicate after answering: callers see their epoch as soon as it is
	// published, replicas catch up before the next fold can start.
	s.replicate(next)
}

// mine produces the result for the staged database: incrementally
// against a clone of the current index when the database kept its shape,
// from scratch when graphs were appended (or incremental mining cannot
// apply). The published snapshot's index is never mutated — that is the
// clone's whole purpose.
func (s *Server) mine(ctx context.Context, cur *Snapshot, db graph.Database, updated map[int]bool, appended bool) (*core.Result, bool, error) {
	if !appended {
		updatedTIDs := make([]int, 0, len(updated))
		for tid := range updated {
			updatedTIDs = append(updatedTIDs, tid)
		}
		prev := *cur.Res // shallow copy; IncMineContext mutates only prev.Index
		prev.Index = cur.Index.Clone()
		inc, err := core.IncMineContext(ctx, db, updatedTIDs, &prev)
		if err == nil {
			return &inc.Result, false, nil
		}
		// The incremental path can legitimately refuse (e.g. the staged
		// database differs from the published one outside updatedTIDs);
		// fall through to a full run rather than failing the batch.
	}
	res, err := core.MineContext(ctx, db, s.opts)
	return res, true, err
}

// stage validates and applies one request's ops onto the working
// database. All-or-nothing: mutations land on request-local clones first
// and are committed only if every op succeeds, so a rejected request
// leaves no trace even when it shares graphs with accepted ones.
// Touched vertices get their update frequency bumped — the partitioning
// criteria use it to isolate update hot spots, exactly as the data
// generator does.
func (s *Server) stage(db *graph.Database, updated map[int]bool, appended *bool, ops []Op) error {
	local := make(map[int]*graph.Graph)
	var added []*graph.Graph

	// get returns the request-local mutable copy of graph tid. Graphs
	// this request appended are mutable in place; everything else is
	// cloned on first touch.
	get := func(tid int) (*graph.Graph, error) {
		if tid < 0 || tid >= len(*db)+len(added) {
			return nil, fmt.Errorf("tid %d out of range [0,%d)", tid, len(*db)+len(added))
		}
		if tid >= len(*db) {
			return added[tid-len(*db)], nil
		}
		if g, ok := local[tid]; ok {
			return g, nil
		}
		g := (*db)[tid].Clone()
		local[tid] = g
		return g, nil
	}
	parse := func(text string) (*graph.Graph, error) {
		gs, err := graph.ReadDatabase(strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		if len(gs) != 1 {
			return nil, fmt.Errorf("expected exactly 1 graph, got %d", len(gs))
		}
		return gs[0], nil
	}

	for i, op := range ops {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("op %d (%s): %s", i, op.Kind, fmt.Sprintf(format, args...))
		}
		switch op.Kind {
		case OpAddVertex:
			g, err := get(op.TID)
			if err != nil {
				return fail("%v", err)
			}
			v := g.AddVertex(op.Label)
			g.BumpUpdateFreq(v, 1)
		case OpAddEdge:
			g, err := get(op.TID)
			if err != nil {
				return fail("%v", err)
			}
			if err := g.AddEdge(op.U, op.V, op.Label); err != nil {
				return fail("%v", err)
			}
			g.SortAdjacency() // AddEdge invalidates the lookup invariant
			g.BumpUpdateFreq(op.U, 1)
			g.BumpUpdateFreq(op.V, 1)
		case OpRemoveEdge:
			g, err := get(op.TID)
			if err != nil {
				return fail("%v", err)
			}
			if !g.RemoveEdge(op.U, op.V) {
				return fail("no edge (%d,%d)", op.U, op.V)
			}
			g.BumpUpdateFreq(op.U, 1)
			g.BumpUpdateFreq(op.V, 1)
		case OpRelabelVertex:
			g, err := get(op.TID)
			if err != nil {
				return fail("%v", err)
			}
			if op.U < 0 || op.U >= g.VertexCount() {
				return fail("vertex %d out of range [0,%d)", op.U, g.VertexCount())
			}
			g.Labels[op.U] = op.Label
			g.BumpUpdateFreq(op.U, 1)
		case OpRelabelEdge:
			g, err := get(op.TID)
			if err != nil {
				return fail("%v", err)
			}
			if !g.SetEdgeLabel(op.U, op.V, op.Label) {
				return fail("no edge (%d,%d)", op.U, op.V)
			}
			g.BumpUpdateFreq(op.U, 1)
			g.BumpUpdateFreq(op.V, 1)
		case OpClearGraph:
			if op.TID < 0 || op.TID >= len(*db)+len(added) {
				return fail("tid %d out of range [0,%d)", op.TID, len(*db)+len(added))
			}
			if op.TID < len(*db) {
				g := graph.New((*db)[op.TID].ID)
				local[op.TID] = g
			} else {
				added[op.TID-len(*db)] = graph.New(added[op.TID-len(*db)].ID)
			}
		case OpReplaceGraph:
			g, err := parse(op.Graph)
			if err != nil {
				return fail("%v", err)
			}
			if op.TID < 0 || op.TID >= len(*db)+len(added) {
				return fail("tid %d out of range [0,%d)", op.TID, len(*db)+len(added))
			}
			if op.TID < len(*db) {
				g.ID = (*db)[op.TID].ID
				local[op.TID] = g
			} else {
				g.ID = added[op.TID-len(*db)].ID
				added[op.TID-len(*db)] = g
			}
		case OpAddGraph:
			g, err := parse(op.Graph)
			if err != nil {
				return fail("%v", err)
			}
			g.ID = len(*db) + len(added)
			added = append(added, g)
		default:
			return fail("unknown op kind")
		}
	}

	// Commit: every op succeeded, fold the request-local state in.
	for tid, g := range local {
		(*db)[tid] = g
		updated[tid] = true
	}
	for _, g := range added {
		*db = append(*db, g)
	}
	if len(added) > 0 {
		*appended = true
	}
	return nil
}

// Stats is the service-level statistics document (/v1/stats).
type Stats struct {
	Epoch    uint64 `json:"epoch"`
	Graphs   int    `json:"graphs"`
	Edges    int    `json:"edges"`
	Patterns int    `json:"patterns"`
	// PlansCompiled is the number of mined patterns the served snapshot's
	// search index answers from their mined TID sets; the counters below
	// are server-lifetime totals from the observer seam.
	PlansCompiled int     `json:"plans_compiled"`
	PlanHits      int64   `json:"plan_hits"`
	VF2Fallbacks  int64   `json:"vf2_fallbacks"`
	CacheHits     int64   `json:"query_cache_hits"`
	CacheMisses   int64   `json:"query_cache_misses"`
	CacheHitRatio float64 `json:"query_cache_hit_ratio"`
	MinSupport    int     `json:"min_support"`
	UptimeNS      int64   `json:"uptime_ns"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	SnapshotAgeNS int64   `json:"snapshot_age_ns"`

	// Queries counts read queries served (patterns + contains requests);
	// Updates is the cumulative applied-op count (alias of OpsApplied
	// under the counter-style name the observability layer uses).
	Queries int64 `json:"queries_total"`
	Updates int64 `json:"updates_total"`

	Batches        int64 `json:"batches"`
	OpsApplied     int64 `json:"ops_applied"`
	OpsRejected    int64 `json:"ops_rejected"`
	FullRemines    int64 `json:"full_remines"`
	LastBatchOps   int   `json:"last_batch_ops"`
	LastLatencyNS  int64 `json:"last_batch_latency_ns"`
	TotalLatencyNS int64 `json:"total_batch_latency_ns"`
	MaxLatencyNS   int64 `json:"max_batch_latency_ns"`

	// Partition is the quality of the served snapshot's partitioning
	// (strategy name, edge-cut ratio, replication factor, unit balance).
	Partition *partition.Quality `json:"partition_quality,omitempty"`

	// Merge holds the cumulative merge-join counters across every mining
	// round, including the pruning counters (merge.triple_pruned,
	// merge.sig_pruned) the feature index contributes: the merge.* entries
	// of Exec.Counters, with a 0 for each that has not fired.
	Merge map[string]int64 `json:"merge"`
	// Cluster reports the coordinator's fleet when the server runs in
	// cluster mode: membership with liveness, the live unit assignment,
	// the replica set, and the cluster counters. Omitted otherwise.
	Cluster *cluster.Info `json:"cluster,omitempty"`

	// Exec is the registry's per-stage phase breakdown and counters
	// aggregated over the server's lifetime, by seam name; /metrics
	// exposes the same instruments.
	Exec obs.View `json:"exec"`

	// Latency digests (p50/p95/p99, in seconds) of the server's core
	// histograms; the full distributions are exposed at /metrics.
	FoldLatency obs.Quantiles            `json:"fold_latency_seconds"`
	HTTPLatency map[string]obs.Quantiles `json:"http_latency_seconds,omitempty"`
}

// countersOf fills names — a layer's counter vocabulary, all zero — with
// the seam's values, so a counter that has not fired reads 0 in the
// layer's block rather than being absent.
func countersOf(seam, names map[string]int64) map[string]int64 {
	for name := range names {
		names[name] = seam[name]
	}
	return names
}

// Stats snapshots the service statistics. Everything that is a seam event
// is read from the registry; s.mu is held only for the batch statistics,
// which the fold loop owns.
func (s *Server) Stats() Stats {
	snap := s.Snapshot()
	now := time.Now()
	st := Stats{
		Epoch:         snap.Epoch,
		Graphs:        len(snap.DB),
		Edges:         snap.DB.TotalEdges(),
		Patterns:      snap.PatternCount(),
		MinSupport:    snap.Res.Options.MinSupport,
		UptimeNS:      now.Sub(s.start).Nanoseconds(),
		UptimeSeconds: now.Sub(s.start).Seconds(),
		SnapshotAgeNS: now.Sub(snap.Created).Nanoseconds(),
		Queries:       s.metrics.queries.Value(),
		Updates:       s.metrics.updates.Value(),
		Exec:          s.metrics.registry.View(),
		FoldLatency:   s.metrics.foldLatency.Quantiles(),
	}
	st.OpsApplied = st.Updates
	st.PlansCompiled = snap.Search.PlanCount()
	st.PlanHits = st.Exec.Counters["plan.hit"]
	st.VF2Fallbacks = st.Exec.Counters["plan.fallback"]
	st.CacheHits = st.Exec.Counters["query.cache_hit"]
	st.CacheMisses = st.Exec.Counters["query.cache_miss"]
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRatio = float64(st.CacheHits) / float64(total)
	}
	q := snap.Res.PartitionQuality
	st.Partition = &q
	st.Merge = countersOf(st.Exec.Counters, (&mergejoin.Stats{}).Counters())
	if cl := s.cfg.Cluster; cl != nil {
		info := cl.Info(snap.Res.Options.K)
		st.Cluster = &info
	}
	if eps := s.metrics.httpLatency.Children(); len(eps) > 0 {
		st.HTTPLatency = make(map[string]obs.Quantiles, len(eps))
		for _, ep := range eps {
			st.HTTPLatency[ep] = s.metrics.httpLatency.With(ep).Quantiles()
		}
	}
	s.mu.Lock()
	st.Batches = s.bs.batches
	st.OpsRejected = s.bs.opsRejected
	st.FullRemines = s.bs.fullRemines
	st.LastBatchOps = s.bs.lastOps
	st.LastLatencyNS = s.bs.last.Nanoseconds()
	st.TotalLatencyNS = s.bs.total.Nanoseconds()
	st.MaxLatencyNS = s.bs.max.Nanoseconds()
	s.mu.Unlock()
	return st
}
