// Package cluster is the distributed deployment of the PartMiner stack:
// a coordinator that owns the partition tree, the merge-join, and the
// serving snapshot, plus a fleet of workers that mine partition units
// and hold snapshot replicas. The paper's sup/k decomposition makes the
// k units independent after Phase 1 ("PartMiner is inherently parallel
// in nature", §1), so the unit is the shard and a unit mine is a pure
// function of its request: a worker keeps nothing between mines. Unit i
// goes to the i-th worker in id order; when that worker misses its
// heartbeats or fails the RPC, the unit goes to the next live worker in
// the same order. Exactness is never at stake: when no worker answers,
// the coordinator mines the unit itself.
package cluster

// coordinator.go: the coordinator half of the cluster. The coordinator
// owns the membership table and acts as a core.IndexedUnitMiner: unit i
// is shipped to the live members of slot i in order (see owners), past
// dead or erroring workers (counted as cluster.reassignments), falling
// back to a local mine when no worker can answer (cluster.local_mines)
// so the run stays exact instead of failing. Membership comes one of two
// ways. NewCoordinator + Serve is the joined fleet: workers register over
// the "Coordinator" RPC service and a heartbeat monitor marks silent ones
// dead, so the next mine skips them. Dial is the static fleet: a fixed
// address list, no listener and no monitor — liveness is whatever the
// next RPC finds.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partminer/internal/codec"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/obs"
	"partminer/internal/pattern"
	"partminer/internal/remote"
)

// replicaSlot is the slot snapshot replicas take: they start at the last
// member in id order, the one unit 0 reaches last.
const replicaSlot = -1

// UnitKey names partition unit i ("unit-<i>") in /v1/cluster and in the
// worker's trace spans.
func UnitKey(i int) string { return fmt.Sprintf("unit-%d", i) }

// Config parameterizes a Coordinator.
type Config struct {
	// Replicas is how many workers receive each published snapshot;
	// 0 selects 1. Replication is skipped entirely on an empty fleet.
	Replicas int
	// HeartbeatInterval is the monitor's tick; 0 selects
	// DefaultHeartbeat. A worker is dead after MaxMissed intervals
	// without a beat.
	HeartbeatInterval time.Duration
	// MaxMissed is the tolerated consecutive missed intervals; 0
	// selects 3.
	MaxMissed int
}

func (c Config) normalize() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeat
	}
	if c.MaxMissed <= 0 {
		c.MaxMissed = 3
	}
	return c
}

// member is one registered worker.
type member struct {
	id       string
	addr     string
	conn     *remote.Conn
	alive    bool
	lastBeat time.Time
	mined    int64
	// samples is the worker's latest registry snapshot, delivered on its
	// heartbeats; the serving layer federates it onto /metrics.
	samples []obs.Sample
}

// Counters is a point-in-time snapshot of the coordinator's cluster
// counters (mirrored into the observer as cluster.<name>).
type Counters struct {
	Registrations int64 `json:"registrations"`
	Heartbeats    int64 `json:"heartbeats"`
	Deaths        int64 `json:"deaths"`
	Revivals      int64 `json:"revivals"`
	Reassignments int64 `json:"reassignments"`
	LocalMines    int64 `json:"local_mines"`
	// WarmHits is always 0: workers keep no per-unit cache. The field
	// stays because the benchmark harness (benchmark/workloads.go) reads
	// it from /v1/stats.
	WarmHits     int64 `json:"warm_hits"`
	Replications int64 `json:"replications"`
	ShipBytes    int64 `json:"ship_bytes"`
	TraceGrafts  int64 `json:"trace_grafts"`
}

// MemberInfo is one worker in a cluster Info report.
type MemberInfo struct {
	ID            string `json:"id"`
	Addr          string `json:"addr"`
	Alive         bool   `json:"alive"`
	LastBeatAgeMS int64  `json:"last_beat_age_ms"`
	Mined         int64  `json:"mined"`
	// Metrics digests the worker's latest federated samples: counters and
	// gauges by name, histograms as <name>_count / <name>_sum.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Info is the cluster state document behind /v1/cluster.
type Info struct {
	Members  []MemberInfo      `json:"members"`
	Alive    int               `json:"alive"`
	Units    map[string]string `json:"units,omitempty"`
	Replicas []string          `json:"replicas,omitempty"`
	Counters Counters          `json:"counters"`
}

type obsBox struct{ o exec.Observer }

// Coordinator runs cluster membership and shards unit mining over the
// fleet. Create with NewCoordinator and expose with Serve (workers join),
// or with Dial (fixed worker addresses); use MineUnit as
// core.Options.UnitMinerIndexed, and Replicate published snapshots.
type Coordinator struct {
	cfg  Config
	obsv atomic.Pointer[obsBox]

	mu sync.Mutex
	// members is every worker ever seen, dead ones included, sorted by id:
	// the order units are placed in.
	members    []*member
	replicaSet []string

	replicaNext atomic.Int64
	errs        *exec.ErrCap

	counters struct {
		registrations, heartbeats, deaths, revivals atomic.Int64
		reassignments, localMines, replications     atomic.Int64
		shipBytes, traceGrafts                      atomic.Int64
	}

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:  cfg.normalize(),
		errs: exec.NewErrCap(0),
		stop: make(chan struct{}),
	}
}

// lookup returns the member with id, or nil and the position at which
// it would be inserted. Caller holds c.mu.
func (c *Coordinator) lookup(id string) (int, *member) {
	i := sort.Search(len(c.members), func(i int) bool { return c.members[i].id >= id })
	if i < len(c.members) && c.members[i].id == id {
		return i, c.members[i]
	}
	return i, nil
}

// NewCoordinator returns a running coordinator for a joined fleet (its
// heartbeat monitor is live); call Close to stop it.
func NewCoordinator(cfg Config) *Coordinator {
	c := newCoordinator(cfg)
	c.wg.Add(1)
	go c.monitor()
	return c
}

// Dial returns a coordinator over a fixed fleet: the workers listening
// (Worker.Serve, `partworker -listen`) at the given "host:port"
// addresses, each address its own member id. Every address is dialed
// now, so a misconfigured fleet fails fast; a session lost later is
// redialed on next use. There is no heartbeat monitor and nothing to
// Serve: a worker that stops answering costs each of its units one
// failed RPC before the unit fails over to the next worker, and comes
// back by answering again. Install an observer with SetObserver; call
// Close to release the connections.
func Dial(addrs ...string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	c := newCoordinator(Config{})
	for _, addr := range addrs {
		i, m := c.lookup(addr)
		if m != nil {
			continue
		}
		conn, err := remote.DialConn(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.members = slices.Insert(c.members, i, &member{id: addr, addr: addr, conn: conn, alive: true, lastBeat: time.Now()})
	}
	return c, nil
}

// SetObserver installs the observer that receives cluster.* counters and
// the cluster.rpc stage (the server installs its merged observer after
// construction; safe while the coordinator runs).
func (c *Coordinator) SetObserver(o exec.Observer) { c.obsv.Store(&obsBox{o}) }

func (c *Coordinator) observer() exec.Observer {
	if b := c.obsv.Load(); b != nil {
		return b.o
	}
	return nil
}

// count bumps a named cluster counter and mirrors it to the observer.
func (c *Coordinator) count(ctr *atomic.Int64, name string, delta int64) {
	ctr.Add(delta)
	exec.Count(c.observer(), "cluster."+name, delta)
}

// Serve exposes the Coordinator RPC service on l until it closes.
func (c *Coordinator) Serve(l net.Listener) error {
	return new(remote.Server).Serve(l, "Coordinator", &coordService{c})
}

// Close stops the monitor and releases every worker connection.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		m.conn.Close()
	}
}

// register adds or revives a worker. Dead members keep their place in
// the id order (so a recovered worker gets exactly its old units back);
// registration and heartbeats flip them back to alive.
func (c *Coordinator) register(args RegisterArgs, reply *RegisterReply) error {
	if args.ID == "" || args.Addr == "" {
		return fmt.Errorf("cluster: register needs an ID and address")
	}
	c.mu.Lock()
	i, m := c.lookup(args.ID)
	if m == nil {
		m = &member{id: args.ID, addr: args.Addr, conn: remote.NewConn(args.Addr)}
		c.members = slices.Insert(c.members, i, m)
	} else if m.addr != args.Addr {
		m.conn.Close()
		m.addr = args.Addr
		m.conn = remote.NewConn(args.Addr)
	}
	m.alive = true
	m.lastBeat = time.Now()
	reply.Members = len(c.members)
	c.mu.Unlock()
	c.count(&c.counters.registrations, "registrations", 1)
	return nil
}

func (c *Coordinator) heartbeat(args HeartbeatArgs, reply *HeartbeatReply) error {
	c.mu.Lock()
	_, m := c.lookup(args.ID)
	if m == nil {
		c.mu.Unlock()
		reply.Known = false
		return nil
	}
	revived := !m.alive
	m.alive = true
	m.lastBeat = time.Now()
	m.mined = args.Mined
	if len(args.Metrics) > 0 {
		m.samples = args.Metrics
	}
	c.mu.Unlock()
	reply.Known = true
	c.count(&c.counters.heartbeats, "heartbeats", 1)
	if revived {
		c.count(&c.counters.revivals, "revivals", 1)
	}
	return nil
}

// monitor marks workers dead after MaxMissed heartbeat intervals of
// silence; the next mine sends their units to the next live worker.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweep(time.Now())
		}
	}
}

func (c *Coordinator) sweep(now time.Time) {
	grace := time.Duration(c.cfg.MaxMissed) * c.cfg.HeartbeatInterval
	var died int64
	c.mu.Lock()
	for _, m := range c.members {
		if m.alive && now.Sub(m.lastBeat) > grace {
			m.alive = false
			died++
		}
	}
	c.mu.Unlock()
	if died > 0 {
		c.count(&c.counters.deaths, "deaths", died)
	}
}

// owners returns slot's live members in the order a request tries them,
// and the id of slot's primary ("" on an empty fleet). The order is every
// member ever seen, sorted by id and rotated to start at slot mod n, so
// unit i's primary is the (i mod n)-th member and, with all n alive, K
// units load each with ⌊K/n⌋ or ⌈K/n⌉. Dead members keep their place and
// are skipped: a death moves only the dead worker's units, each to the
// next live id, and a rejoin under the same id restores the old
// placement.
func (c *Coordinator) owners(slot int) (live []*member, primary string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.members)
	if n == 0 {
		return nil, ""
	}
	start := (slot%n + n) % n
	for i := 0; i < n; i++ {
		if m := c.members[(start+i)%n]; m.alive {
			live = append(live, m)
		}
	}
	return live, c.members[start].id
}

// shardCall is one RPC to a worker, timed as the cluster.rpc stage with
// the shipped payload counted into cluster.ship_bytes.
func (c *Coordinator) shardCall(ctx context.Context, m *member, method string, args, reply any, shipBytes int) error {
	o := c.observer()
	end := exec.StageTimer(o, "cluster.rpc")
	err := m.conn.Call(ctx, method, args, reply, o)
	end()
	if err == nil && shipBytes > 0 {
		c.count(&c.counters.shipBytes, "ship_bytes", int64(shipBytes))
	}
	return err
}

// graftReply splices a worker-side trace subtree (the TraceJSON of a
// traced reply) into the live span that initiated the RPC, anchored at
// the moment the RPC was issued and bounded by the default graft caps.
// Untraced calls (nil span, empty subtree) cost nothing.
func (c *Coordinator) graftReply(sp *obs.Span, rpcStart time.Time, traceJSON []byte) {
	if sp == nil || len(traceJSON) == 0 {
		return
	}
	n, err := obs.DecodeNode(traceJSON)
	if err != nil {
		return // a malformed trace never fails the data path
	}
	if sp.Graft(rpcStart, n, 0, 0) > 0 {
		c.count(&c.counters.traceGrafts, "trace_grafts", 1)
	}
}

// WorkerSamples snapshots every live worker's latest federated metric
// samples, keyed by worker id in sorted order — the serving layer
// renders them as partserve_worker_* series on /metrics.
func (c *Coordinator) WorkerSamples() (ids []string, samples map[string][]obs.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	samples = make(map[string][]obs.Sample, len(c.members))
	for _, m := range c.members {
		if m.alive && len(m.samples) > 0 {
			ids = append(ids, m.id)
			samples[m.id] = m.samples
		}
	}
	return ids, samples
}

// digestSamples flattens a worker's samples into the /v1/cluster member
// block: counters and gauges by name, histograms as _count/_sum, vec
// children keyed with their label pair.
func digestSamples(samples []obs.Sample) map[string]float64 {
	if len(samples) == 0 {
		return nil
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		name := s.Name
		if s.Label != "" {
			name = fmt.Sprintf("%s{%s=%q}", s.Name, s.Label, s.LabelValue)
		}
		if s.Type == "histogram" {
			out[name+"_count"] = float64(s.Count)
			out[name+"_sum"] = s.Sum
			continue
		}
		out[name] = s.Value
	}
	return out
}

// MineUnit is the coordinator's core.IndexedUnitMiner: the unit tries
// the live members of its slot in order (owners), an answer from any but
// the slot's primary counts as a reassignment, and when no worker
// answers the unit is mined locally (cluster.local_mines). The run never
// fails on fleet trouble: the worst case is an empty set plus an error,
// which PartMiner surfaces as a degraded unit and the merge-join absorbs.
func (c *Coordinator) MineUnit(ctx context.Context, unit int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
	key := UnitKey(unit)
	frame, err := codec.EncodeDatabase(db)
	if err != nil {
		return make(pattern.Set), err
	}
	args := MineUnitArgs{
		UnitKey:    key,
		DB:         frame,
		MinSupport: minSup,
		MaxEdges:   maxEdges,
	}
	if dl, ok := ctx.Deadline(); ok {
		args.DeadlineUnixMilli = dl.UnixMilli()
	}
	// sp is the unit span PartMiner installed around this unit mine; when
	// set, the worker traces its side and the reply subtree grafts here.
	sp := obs.SpanFrom(ctx)
	args.TraceID = sp.TraceID()

	live, primary := c.owners(unit)
	var errs []error
	for _, m := range live {
		var reply MineUnitReply
		rpcStart := time.Now()
		if err := c.shardCall(ctx, m, "Shard.MineUnit", args, &reply, len(args.DB)); err != nil {
			errs = append(errs, fmt.Errorf("worker %s (%s): %w", m.id, m.addr, err))
			if ctx.Err() != nil {
				break // cancellation fails every worker identically
			}
			continue
		}
		set, err := codec.DecodeSet(reply.Set, len(db))
		if err != nil {
			errs = append(errs, fmt.Errorf("worker %s (%s): %w", m.id, m.addr, err))
			continue
		}
		c.graftReply(sp, rpcStart, reply.TraceJSON)
		if m.id != primary {
			c.count(&c.counters.reassignments, "reassignments", 1)
		}
		return set, nil
	}

	// No worker could answer (empty fleet, all dead, or all erroring):
	// mine here, exactly as a worker would have, so the run stays exact.
	// Fleet errors are recorded but not returned — a successful local mine
	// is not a degraded unit.
	for _, err := range errs {
		c.errs.Add(err)
	}
	c.count(&c.counters.localMines, "local_mines", 1)
	set, err := mineUnitDB(ctx, db, &args)
	if err != nil {
		errs = append(errs, fmt.Errorf("local fallback: %w", err))
		joined := errors.Join(errs...)
		c.errs.Add(err)
		return make(pattern.Set), joined
	}
	return set, nil
}

// Replicate ships a published snapshot (a core.SaveSnapshot frame) to
// the first Replicas live members of replicaSlot, so pattern/containment
// reads can be served from replicas. No-fleet is a silent no-op; an
// error means no replica accepted the snapshot.
func (c *Coordinator) Replicate(ctx context.Context, snapshot []byte, epoch uint64) error {
	owners, _ := c.owners(replicaSlot)
	if len(owners) > c.cfg.Replicas {
		owners = owners[:c.cfg.Replicas]
	}
	var ok []string
	var errs []error
	args := StoreSnapshotArgs{Snapshot: snapshot, Epoch: epoch}
	for _, m := range owners {
		var reply StoreSnapshotReply
		if err := c.shardCall(ctx, m, "Shard.StoreSnapshot", args, &reply, len(snapshot)); err != nil {
			errs = append(errs, fmt.Errorf("replica %s (%s): %w", m.id, m.addr, err))
			c.errs.Add(errs[len(errs)-1])
			continue
		}
		ok = append(ok, m.id)
		c.count(&c.counters.replications, "replications", 1)
	}
	c.mu.Lock()
	c.replicaSet = ok
	c.mu.Unlock()
	if len(ok) == 0 && len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

// replicas snapshots the current replica membership.
func (c *Coordinator) replicas() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*member, 0, len(c.replicaSet))
	for _, id := range c.replicaSet {
		if _, m := c.lookup(id); m != nil && m.alive {
			out = append(out, m)
		}
	}
	return out
}

// ReadTopK serves a pattern read from a snapshot replica, round-robin
// over the live replica set. Callers fall back to their local snapshot
// on error.
func (c *Coordinator) ReadTopK(ctx context.Context, k, minEdges, maxEdges int) (*TopKReply, error) {
	reps := c.replicas()
	if len(reps) == 0 {
		return nil, fmt.Errorf("cluster: no live snapshot replicas")
	}
	sp := obs.SpanFrom(ctx)
	args := TopKArgs{K: k, MinEdges: minEdges, MaxEdges: maxEdges, TraceID: sp.TraceID()}
	start := int(c.replicaNext.Add(1) - 1)
	var errs []error
	for i := 0; i < len(reps); i++ {
		m := reps[(start+i)%len(reps)]
		var reply TopKReply
		rpcStart := time.Now()
		if err := c.shardCall(ctx, m, "Shard.TopK", args, &reply, 0); err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", m.id, err))
			continue
		}
		c.graftReply(sp, rpcStart, reply.TraceJSON)
		return &reply, nil
	}
	return nil, errors.Join(errs...)
}

// ReadContains serves a containment read from a snapshot replica (the
// query graph travels in gSpan text).
func (c *Coordinator) ReadContains(ctx context.Context, queryText []byte) (*ContainsReply, error) {
	reps := c.replicas()
	if len(reps) == 0 {
		return nil, fmt.Errorf("cluster: no live snapshot replicas")
	}
	sp := obs.SpanFrom(ctx)
	args := ContainsArgs{QueryText: queryText, TraceID: sp.TraceID()}
	start := int(c.replicaNext.Add(1) - 1)
	var errs []error
	for i := 0; i < len(reps); i++ {
		m := reps[(start+i)%len(reps)]
		var reply ContainsReply
		rpcStart := time.Now()
		if err := c.shardCall(ctx, m, "Shard.Contains", args, &reply, 0); err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", m.id, err))
			continue
		}
		c.graftReply(sp, rpcStart, reply.TraceJSON)
		return &reply, nil
	}
	return nil, errors.Join(errs...)
}

// Counters snapshots the cluster counters.
func (c *Coordinator) Counters() Counters {
	return Counters{
		Registrations: c.counters.registrations.Load(),
		Heartbeats:    c.counters.heartbeats.Load(),
		Deaths:        c.counters.deaths.Load(),
		Revivals:      c.counters.revivals.Load(),
		Reassignments: c.counters.reassignments.Load(),
		LocalMines:    c.counters.localMines.Load(),
		Replications:  c.counters.replications.Load(),
		ShipBytes:     c.counters.shipBytes.Load(),
		TraceGrafts:   c.counters.traceGrafts.Load(),
	}
}

// AliveMembers returns how many workers are currently considered live.
func (c *Coordinator) AliveMembers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.members {
		if m.alive {
			n++
		}
	}
	return n
}

// Info reports the cluster state: membership with liveness, the current
// unit assignment for units 0..unitCount-1 (the live owner each unit
// would route to right now), the replica set, and the counters.
func (c *Coordinator) Info(unitCount int) Info {
	now := time.Now()
	c.mu.Lock()
	members := make([]MemberInfo, 0, len(c.members))
	alive := 0
	for _, m := range c.members {
		if m.alive {
			alive++
		}
		members = append(members, MemberInfo{
			ID:            m.id,
			Addr:          m.addr,
			Alive:         m.alive,
			LastBeatAgeMS: now.Sub(m.lastBeat).Milliseconds(),
			Mined:         m.mined,
			Metrics:       digestSamples(m.samples),
		})
	}
	replicaSet := append([]string(nil), c.replicaSet...)
	c.mu.Unlock()

	var units map[string]string
	if unitCount > 0 && len(members) > 0 {
		units = make(map[string]string, unitCount)
		for i := 0; i < unitCount; i++ {
			units[UnitKey(i)] = "" // no live owner: unit mines locally
			if live, _ := c.owners(i); len(live) > 0 {
				units[UnitKey(i)] = live[0].id
			}
		}
	}
	return Info{
		Members:  members,
		Alive:    alive,
		Units:    units,
		Replicas: replicaSet,
		Counters: c.Counters(),
	}
}

// Err returns the errors the coordinator absorbed while degrading
// (failed worker mines, failed replications): the first and most recent
// verbatim, the middle elided with a count (exec.ErrCap).
func (c *Coordinator) Err() error {
	return c.errs.Err()
}

// coordService is the net/rpc receiver for the membership protocol.
type coordService struct{ c *Coordinator }

func (s *coordService) Register(args RegisterArgs, reply *RegisterReply) error {
	return s.c.register(args, reply)
}

func (s *coordService) Heartbeat(args HeartbeatArgs, reply *HeartbeatReply) error {
	return s.c.heartbeat(args, reply)
}
