package cluster

// coordinator.go: the coordinator half of the cluster. The coordinator
// owns the ring and the membership table and acts as a
// core.IndexedUnitMiner: each unit is shipped to its ring owner, failing
// over along the ring past dead or erroring workers (counted as
// cluster.reassignments), falling back to a local mine when no worker
// can answer (cluster.local_mines) so the run stays exact instead of
// failing. Membership comes one of two ways. NewCoordinator + Serve is
// the joined fleet: workers register over the "Coordinator" RPC service
// and a heartbeat monitor marks silent ones dead and eagerly re-mines
// their units on the new owners, so the next fold finds warm caches
// where the dead worker's units moved. Dial is the static fleet: a fixed
// address list, no listener and no monitor — liveness is whatever the
// next RPC finds.

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// snapshotKey is the ring key replica placement hashes; it rides the
// same ring as the units so replicas follow membership automatically.
const snapshotKey = "snapshot"

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
	// Observer receives cluster.* counters and the cluster.rpc stage;
	// replaceable later with SetObserver (the server wires its merged
	// observer in after construction).
	Observer exec.Observer
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
	warmHits int64
	// samples is the worker's latest registry snapshot, delivered on its
	// heartbeats; the serving layer federates it onto /metrics.
	samples []obs.Sample
}

// mineRecord remembers the last mine request for a unit, so the monitor
// can re-mine a dead worker's units on their new owners without waiting
// for the next fold.
type mineRecord struct {
	key   string
	args  MineUnitArgs
	owner string
}

// Counters is a point-in-time snapshot of the coordinator's cluster
// counters (mirrored into the observer as cluster.<name>).
type Counters struct {
	Registrations int64 `json:"registrations"`
	Heartbeats    int64 `json:"heartbeats"`
	Deaths        int64 `json:"deaths"`
	Revivals      int64 `json:"revivals"`
	Reassignments int64 `json:"reassignments"`
	Remines       int64 `json:"remines"`
	LocalMines    int64 `json:"local_mines"`
	WarmHits      int64 `json:"warm_hits"`
	Replications  int64 `json:"replications"`
	ShipBytes     int64 `json:"ship_bytes"`
	TraceGrafts   int64 `json:"trace_grafts"`
}

// MemberInfo is one worker in a cluster Info report.
type MemberInfo struct {
	ID            string `json:"id"`
	Addr          string `json:"addr"`
	Alive         bool   `json:"alive"`
	LastBeatAgeMS int64  `json:"last_beat_age_ms"`
	Mined         int64  `json:"mined"`
	WarmHits      int64  `json:"warm_hits"`
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
	ring *Ring
	obsv atomic.Pointer[obsBox]

	mu         sync.Mutex
	members    map[string]*member
	lastMine   map[string]*mineRecord
	replicaSet []string

	replicaNext atomic.Int64
	errs        *exec.ErrCap

	counters struct {
		registrations, heartbeats, deaths, revivals atomic.Int64
		reassignments, remines, localMines          atomic.Int64
		warmHits, replications, shipBytes           atomic.Int64
		traceGrafts                                 atomic.Int64
	}

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newCoordinator(cfg Config) *Coordinator {
	cfg = cfg.normalize()
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(0),
		members:  make(map[string]*member),
		lastMine: make(map[string]*mineRecord),
		errs:     exec.NewErrCap(0),
		stop:     make(chan struct{}),
	}
	c.obsv.Store(&obsBox{cfg.Observer})
	return c
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
// addresses, each its own ring identity. Every address is dialed now, so
// a misconfigured fleet fails fast; a session lost later is redialed on
// next use. There is no heartbeat monitor and nothing to Serve: a worker
// that stops answering costs each of its units one failed RPC before the
// unit fails over along the ring, and comes back by answering again.
// Install an observer with SetObserver; call Close to release the
// connections.
func Dial(addrs ...string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	c := newCoordinator(Config{})
	for _, addr := range addrs {
		conn, err := remote.DialConn(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.members[addr] = &member{id: addr, addr: addr, conn: conn, alive: true, lastBeat: time.Now()}
		c.ring.Add(addr)
	}
	return c, nil
}

// SetObserver replaces the observer (the server installs its merged
// observer after construction; safe while the coordinator runs).
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

// register adds or revives a worker. Dead members stay on the ring (so
// a recovered worker reclaims exactly its old units); registration and
// heartbeats flip them back to alive.
func (c *Coordinator) register(args RegisterArgs, reply *RegisterReply) error {
	if args.ID == "" || args.Addr == "" {
		return fmt.Errorf("cluster: register needs an ID and address")
	}
	c.mu.Lock()
	m, ok := c.members[args.ID]
	if !ok {
		m = &member{id: args.ID, addr: args.Addr, conn: remote.NewConn(args.Addr)}
		c.members[args.ID] = m
		c.ring.Add(args.ID)
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
	m, ok := c.members[args.ID]
	if !ok {
		c.mu.Unlock()
		reply.Known = false
		return nil
	}
	revived := !m.alive
	m.alive = true
	m.lastBeat = time.Now()
	m.mined = args.Mined
	m.warmHits = args.WarmHits
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
// silence, then re-mines each dead worker's units on the surviving
// owners so the reassignment is warm before the next fold needs it.
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
	var orphans []*mineRecord
	c.mu.Lock()
	for _, m := range c.members {
		if !m.alive || now.Sub(m.lastBeat) <= grace {
			continue
		}
		m.alive = false
		c.counters.deaths.Add(1)
		exec.Count(c.observer(), "cluster.deaths", 1)
		for _, rec := range c.lastMine {
			if rec.owner == m.id {
				orphans = append(orphans, rec)
			}
		}
	}
	c.mu.Unlock()
	if len(orphans) > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.remineOrphans(orphans)
		}()
	}
}

// remineOrphans re-runs a dead worker's units on their new ring owners.
// Results are not needed here — the published snapshot already holds
// them — the point is moving ownership and warming the new owners'
// caches, so re-mining is cheap when the units next matter.
func (c *Coordinator) remineOrphans(orphans []*mineRecord) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*c.cfg.HeartbeatInterval)
	defer cancel()
	for _, rec := range orphans {
		// The record is the request as first sent; this re-mine runs under
		// its own deadline and nobody reads a trace of it.
		args := rec.args
		args.TraceID = ""
		args.DeadlineUnixMilli = 0
		if dl, ok := ctx.Deadline(); ok {
			args.DeadlineUnixMilli = dl.UnixMilli()
		}
		for _, m := range c.aliveOwners(rec.key) {
			var reply MineUnitReply
			if err := c.shardCall(ctx, m, "Shard.MineUnit", args, &reply, len(args.DB)); err != nil {
				c.errs.Add(fmt.Errorf("re-mine %s on %s: %w", rec.key, m.id, err))
				continue
			}
			c.mu.Lock()
			rec.owner = m.id
			c.mu.Unlock()
			c.count(&c.counters.reassignments, "reassignments", 1)
			c.count(&c.counters.remines, "remines", 1)
			if reply.Warm {
				c.count(&c.counters.warmHits, "warm_hits", 1)
			}
			break
		}
	}
}

// aliveOwners returns the ring's owner order for key filtered to live
// members (the primary first when it is alive).
func (c *Coordinator) aliveOwners(key string) []*member {
	ids := c.ring.Owners(key, c.ring.Size())
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*member, 0, len(ids))
	for _, id := range ids {
		if m := c.members[id]; m != nil && m.alive {
			out = append(out, m)
		}
	}
	return out
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
	samples = make(map[string][]obs.Sample, len(c.members))
	for id, m := range c.members {
		if m.alive && len(m.samples) > 0 {
			samples[id] = m.samples
		}
	}
	c.mu.Unlock()
	ids = make([]string, 0, len(samples))
	for id := range samples {
		ids = append(ids, id)
	}
	sort.Strings(ids)
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

// MineUnit is the coordinator's core.IndexedUnitMiner: the unit goes to
// its ring owner, failing over along the ring past dead or erroring
// workers (cluster.reassignments), and falling back to a local mine
// when no worker answers (cluster.local_mines). The run never fails on
// fleet trouble: the worst case is an empty set plus an error, which
// PartMiner surfaces as a degraded unit and the merge-join absorbs.
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

	primary, _ := c.ring.Owner(key)
	var errs []error
	for _, m := range c.aliveOwners(key) {
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
		if reply.Warm {
			c.count(&c.counters.warmHits, "warm_hits", 1)
		}
		c.mu.Lock()
		c.lastMine[key] = &mineRecord{key: key, args: args, owner: m.id}
		c.mu.Unlock()
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
// Replicas workers chosen by the ring, so pattern/containment reads can
// be served from replicas. No-fleet is a silent no-op; an error means
// no replica accepted the snapshot.
func (c *Coordinator) Replicate(ctx context.Context, snapshot []byte, epoch uint64) error {
	owners := c.aliveOwners(snapshotKey)
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
		if m := c.members[id]; m != nil && m.alive {
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
		Remines:       c.counters.remines.Load(),
		LocalMines:    c.counters.localMines.Load(),
		WarmHits:      c.counters.warmHits.Load(),
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
			WarmHits:      m.warmHits,
			Metrics:       digestSamples(m.samples),
		})
	}
	replicaSet := append([]string(nil), c.replicaSet...)
	c.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })

	var units map[string]string
	if unitCount > 0 && len(members) > 0 {
		units = make(map[string]string, unitCount)
		for i := 0; i < unitCount; i++ {
			key := UnitKey(i)
			if owners := c.aliveOwners(key); len(owners) > 0 {
				units[key] = owners[0].id
			} else {
				units[key] = "" // no live owner: unit mines locally
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
