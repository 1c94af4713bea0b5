package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"partminer/internal/core"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/pattern"
	"partminer/internal/query"
)

// testCluster is a coordinator plus n in-process workers, either joined
// (startCluster) or statically dialed (startStatic).
type testCluster struct {
	t         *testing.T
	coord     *Coordinator
	coordAddr string
	workers   []*Worker
	listeners []net.Listener
}

// startCluster boots a coordinator and n workers (ids worker-0..n-1),
// all registered and heartbeating.
func startCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(cfg)
	go coord.Serve(cl) //nolint:errcheck // returns when the listener closes
	t.Cleanup(func() { coord.Close(); cl.Close() })

	tc := &testCluster{t: t, coord: coord, coordAddr: cl.Addr().String()}
	for i := 0; i < n; i++ {
		tc.addWorker(fmt.Sprintf("worker-%d", i))
	}
	return tc
}

// startStatic boots n workers that join nothing and a coordinator that
// dials their addresses; the member ids are the addresses.
func startStatic(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = tc.serveWorker(fmt.Sprintf("worker-%d", i)).Advertise
	}
	coord, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	// Dial returns once the client side of each session is up; one round
	// trip per worker proves its accept loop holds the session, so a kill
	// right after this severs it instead of racing the accept.
	for _, m := range coord.members {
		var reply TopKReply
		//nolint:errcheck // no replica is held yet: the error is the expected answer
		m.conn.Call(context.Background(), "Shard.TopK", TopKArgs{}, &reply, nil)
	}
	tc.coord = coord
	return tc
}

// fleets runs f once over a joined and once over a static n-worker fleet.
func fleets(t *testing.T, n int, cfg Config, f func(t *testing.T, tc *testCluster)) {
	t.Run("joined", func(t *testing.T) { f(t, startCluster(t, n, cfg)) })
	t.Run("static", func(t *testing.T) { f(t, startStatic(t, n)) })
}

// serveWorker starts a worker's Shard service on a loopback listener.
func (tc *testCluster) serveWorker(id string) *Worker {
	tc.t.Helper()
	w := NewWorker(id)
	w.Heartbeat = 10 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	w.Advertise = l.Addr().String()
	go w.Serve(l) //nolint:errcheck
	tc.t.Cleanup(func() { w.Close(); l.Close() })
	tc.workers = append(tc.workers, w)
	tc.listeners = append(tc.listeners, l)
	return w
}

func (tc *testCluster) addWorker(id string) *Worker {
	tc.t.Helper()
	w := tc.serveWorker(id)
	if err := w.Join(tc.coordAddr); err != nil {
		tc.t.Fatal(err)
	}
	return w
}

// kill simulates SIGKILL on worker i: heartbeats stop, the listener
// refuses new dials, and live RPC sessions are severed.
func (tc *testCluster) kill(i int) {
	tc.workers[i].Close()
	tc.listeners[i].Close()
	tc.workers[i].Sever()
}

// workerIndex maps a member id (the worker id in a joined fleet, its
// address in a static one) back to its position in tc.workers.
func (tc *testCluster) workerIndex(id string) int {
	for i, w := range tc.workers {
		if w.ID == id || w.Advertise == id {
			return i
		}
	}
	tc.t.Fatalf("unknown worker id %q", id)
	return -1
}

func testDB(seed int64) graph.Database {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomDatabase(rng, 10, 6, 9, 3, 2)
}

// assertBitForBit pins the cluster result to the local result: pattern
// keys, supports, TID bitsets, and every per-unit set.
func assertBitForBit(t *testing.T, seed int64, got, want *core.Result) {
	t.Helper()
	if !got.Patterns.Equal(want.Patterns) {
		t.Fatalf("seed %d: pattern diff: %v", seed, got.Patterns.Diff(want.Patterns))
	}
	for key, p := range want.Patterns {
		q := got.Patterns[key]
		if (p.TIDs == nil) != (q.TIDs == nil) {
			t.Fatalf("seed %d: pattern %s TID presence differs", seed, key)
		}
		if p.TIDs != nil && !p.TIDs.Equal(q.TIDs) {
			t.Fatalf("seed %d: pattern %s TID bitset differs: %v vs %v", seed, key, q.TIDs.Slice(), p.TIDs.Slice())
		}
	}
	if len(got.UnitPatterns) != len(want.UnitPatterns) {
		t.Fatalf("seed %d: unit count %d vs %d", seed, len(got.UnitPatterns), len(want.UnitPatterns))
	}
	for i := range want.UnitPatterns {
		if !got.UnitPatterns[i].Equal(want.UnitPatterns[i]) {
			t.Fatalf("seed %d: unit %d diff: %v", seed, i, got.UnitPatterns[i].Diff(want.UnitPatterns[i]))
		}
		for key, p := range want.UnitPatterns[i] {
			q := got.UnitPatterns[i][key]
			if p.TIDs != nil && (q.TIDs == nil || !p.TIDs.Equal(q.TIDs)) {
				t.Fatalf("seed %d: unit %d pattern %s TIDs differ", seed, i, key)
			}
		}
	}
}

// TestClusterMineDifferential50Seeds is the subsystem's exactness
// anchor: across 50 random databases, mining through the cluster (units
// sharded over 3 workers in id order) is bit-for-bit the single-node
// PartMiner result — keys, supports, TID bitsets, and per-unit sets —
// and the gSpan result, whether the workers joined or were dialed.
func TestClusterMineDifferential50Seeds(t *testing.T) {
	fleets(t, 3, Config{}, func(t *testing.T, tc *testCluster) {
		for seed := int64(0); seed < 50; seed++ {
			db := testDB(seed)
			base := core.Options{MinSupport: 2, K: 4, MaxEdges: 3}
			want, err := core.PartMiner(db, base)
			if err != nil {
				t.Fatal(err)
			}
			clustered := base
			clustered.UnitMinerIndexed = tc.coord.MineUnit
			got, err := core.PartMiner(db, clustered)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Degraded) != 0 {
				t.Fatalf("seed %d: healthy fleet degraded units %v", seed, got.Degraded)
			}
			assertBitForBit(t, seed, got, want)
			oracle := gspan.Mine(db, gspan.Options{MinSupport: 2, MaxEdges: 3})
			if !got.Patterns.Equal(oracle) {
				t.Fatalf("seed %d: diff against gSpan: %v", seed, got.Patterns.Diff(oracle))
			}
			for key, p := range oracle {
				if !p.TIDs.Equal(got.Patterns[key].TIDs) {
					t.Fatalf("seed %d: pattern %s TIDs differ from gSpan's", seed, key)
				}
			}
		}
		if err := tc.coord.Err(); err != nil {
			t.Fatalf("healthy fleet recorded errors: %v", err)
		}
		if tc.coord.Counters().LocalMines != 0 {
			t.Error("healthy fleet should never fall back to local mining")
		}
	})
}

// TestClusterKillMidMine kills the worker owning unit 0 right before
// unit 0 is mined: its remaining units fail over to the next worker, the run
// stays bit-for-bit exact, and the churn is counted as reassignments.
func TestClusterKillMidMine(t *testing.T) {
	// Long heartbeat grace: the kill must be discovered by the failing
	// RPCs (the mid-mine path, a static fleet's only one), not by the
	// monitor.
	fleets(t, 3, Config{HeartbeatInterval: time.Minute}, func(t *testing.T, tc *testCluster) {
		const seed = 7
		db := testDB(seed)
		base := core.Options{MinSupport: 2, K: 4, MaxEdges: 3}
		want, err := core.PartMiner(db, base)
		if err != nil {
			t.Fatal(err)
		}

		victim := tc.coord.Info(4).Units[UnitKey(0)]
		if victim == "" {
			t.Fatal("unit 0 has no live owner")
		}
		clustered := base
		clustered.UnitMinerIndexed = func(ctx context.Context, unit int, udb graph.Database, minSup, maxEdges int) (pattern.Set, error) {
			if unit == 0 {
				tc.kill(tc.workerIndex(victim))
			}
			return tc.coord.MineUnit(ctx, unit, udb, minSup, maxEdges)
		}
		got, err := core.PartMiner(db, clustered)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Degraded) != 0 {
			t.Fatalf("failover should keep units healthy; degraded %v", got.Degraded)
		}
		assertBitForBit(t, seed, got, want)
		ctrs := tc.coord.Counters()
		if ctrs.Reassignments == 0 {
			t.Error("killing a unit owner mid-mine must count reassignments")
		}
		if ctrs.LocalMines != 0 {
			t.Errorf("local mines = %d with two workers still up", ctrs.LocalMines)
		}
		// Successful failover is clean: Err() reports only fleet trouble that
		// cost a unit its workers.
		if err := tc.coord.Err(); err != nil {
			t.Errorf("recovered failover must not record errors: %v", err)
		}
	})
}

// waitAlive polls until the coordinator counts n live workers.
func waitAlive(t *testing.T, coord *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.AliveMembers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("alive workers = %d; want %d", coord.AliveMembers(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterHeartbeatDeathReroutes: a worker that stops heartbeating is
// marked dead by the monitor; the next mine sends its units, and only
// those, to the surviving workers and stays exact; when it rejoins under
// the same id it gets exactly its old units back.
func TestClusterHeartbeatDeathReroutes(t *testing.T) {
	tc := startCluster(t, 3, Config{HeartbeatInterval: 25 * time.Millisecond, MaxMissed: 2})
	const K = 8
	db := testDB(11)
	base := core.Options{MinSupport: 2, K: K, MaxEdges: 3}
	want, err := core.PartMiner(db, base)
	if err != nil {
		t.Fatal(err)
	}

	before := tc.coord.Info(K).Units
	victim := before[UnitKey(0)]
	if victim == "" {
		t.Fatal("unit 0 has no live owner")
	}
	tc.kill(tc.workerIndex(victim))
	waitAlive(t, tc.coord, 2)
	if tc.coord.Counters().Deaths == 0 {
		t.Error("expected a recorded death")
	}

	after := tc.coord.Info(K).Units
	moved := 0
	for unit, was := range before {
		switch now := after[unit]; {
		case was == victim && (now == victim || now == ""):
			t.Errorf("unit %s routed to %q after %s died", unit, now, victim)
		case was == victim:
			moved++
		case now != was:
			t.Errorf("unit %s moved %s -> %s though %s was not its owner", unit, was, now, victim)
		}
	}

	clustered := base
	clustered.UnitMinerIndexed = tc.coord.MineUnit
	got, err := core.PartMiner(db, clustered)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Degraded) != 0 {
		t.Fatalf("rerouted units degraded: %v", got.Degraded)
	}
	assertBitForBit(t, 11, got, want)
	ctrs := tc.coord.Counters()
	if ctrs.Reassignments < int64(moved) {
		t.Errorf("reassignments = %d; want >= %d (the dead worker's units)", ctrs.Reassignments, moved)
	}
	if ctrs.LocalMines != 0 {
		t.Errorf("local mines = %d with two workers up", ctrs.LocalMines)
	}

	// Rejoin under the same id: the old placement comes back.
	tc.addWorker(victim)
	waitAlive(t, tc.coord, 3)
	if rejoined := tc.coord.Info(K).Units; !maps.Equal(rejoined, before) {
		t.Errorf("placement after rejoin %v; before the death %v", rejoined, before)
	}
}

// TestClusterEmptyFleetMinesLocally: a coordinator with no registered
// workers, or with a dialed fleet that has since died, still answers
// exactly: every unit is mined locally, none is degraded, and Err()
// names the workers that did not answer.
func TestClusterEmptyFleetMinesLocally(t *testing.T) {
	db := testDB(5)
	base := core.Options{MinSupport: 2, K: 2, MaxEdges: 3}
	want, err := core.PartMiner(db, base)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, coord *Coordinator) {
		clustered := base
		clustered.UnitMinerIndexed = coord.MineUnit
		got, err := core.PartMiner(db, clustered)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Degraded) != 0 {
			t.Fatalf("local fallback must not degrade: %v", got.Degraded)
		}
		assertBitForBit(t, 5, got, want)
		if coord.Counters().LocalMines != 2 {
			t.Errorf("local mines = %d; want 2", coord.Counters().LocalMines)
		}
	}
	t.Run("empty fleet", func(t *testing.T) {
		coord := NewCoordinator(Config{})
		defer coord.Close()
		check(t, coord)
		if err := coord.Err(); err != nil {
			t.Errorf("no worker was asked, yet Err() = %v", err)
		}
	})
	t.Run("static fleet, all down", func(t *testing.T) {
		tc := startStatic(t, 2)
		tc.kill(0)
		tc.kill(1)
		check(t, tc.coord)
		joined := tc.coord.Err()
		if joined == nil {
			t.Fatal("a dead fleet must be reported")
		}
		for _, w := range tc.workers {
			if !strings.Contains(joined.Error(), w.Advertise) {
				t.Errorf("Err() should name dead worker %s: %v", w.Advertise, joined)
			}
		}
	})
}

// TestClusterMineCancelled: a cancelled context degrades to an empty
// set with the context error, never hanging on the fleet.
func TestClusterMineCancelled(t *testing.T) {
	fleets(t, 1, Config{}, func(t *testing.T, tc *testCluster) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		db := testDB(1)
		set, err := tc.coord.MineUnit(ctx, 0, db, 2, 3)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
		if set == nil || len(set) != 0 {
			t.Fatalf("cancelled set = %v; want empty non-nil", set)
		}
	})
}

// TestClusterReplication: published snapshots land on R workers and
// replica reads agree with the source result.
func TestClusterReplication(t *testing.T) {
	tc := startCluster(t, 3, Config{Replicas: 2})
	db := testDB(9)
	res, err := core.PartMiner(db, core.Options{MinSupport: 2, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, res.Portable()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tc.coord.Replicate(ctx, buf.Bytes(), 1); err != nil {
		t.Fatal(err)
	}
	if got := tc.coord.Counters().Replications; got != 2 {
		t.Fatalf("replications = %d; want 2", got)
	}
	holders := 0
	for _, w := range tc.workers {
		if w.SnapshotEpoch() == 1 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d workers hold the snapshot; want 2", holders)
	}

	// Replica TopK agrees with the canonical order of the source set.
	reply, err := tc.coord.ReadTopK(ctx, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Epoch != 1 {
		t.Errorf("replica epoch = %d; want 1", reply.Epoch)
	}
	type row struct {
		key     string
		support int
	}
	var wantRows []row
	for key, p := range res.Patterns {
		wantRows = append(wantRows, row{key, p.Support})
	}
	sort.Slice(wantRows, func(i, j int) bool {
		if wantRows[i].support != wantRows[j].support {
			return wantRows[i].support > wantRows[j].support
		}
		return wantRows[i].key < wantRows[j].key
	})
	if len(wantRows) > 5 {
		wantRows = wantRows[:5]
	}
	if len(reply.Patterns) != len(wantRows) {
		t.Fatalf("replica returned %d patterns; want %d", len(reply.Patterns), len(wantRows))
	}
	for i, got := range reply.Patterns {
		if got.Key != wantRows[i].key || got.Support != wantRows[i].support {
			t.Errorf("replica row %d = %s/%d; want %s/%d", i, got.Key, got.Support, wantRows[i].key, wantRows[i].support)
		}
	}

	// Replica containment agrees with a direct database scan.
	q := graph.New(0)
	q.AddVertex(0)
	q.AddVertex(1)
	q.MustAddEdge(0, 1, 0)
	var qbuf bytes.Buffer
	if err := graph.WriteDatabase(&qbuf, graph.Database{q}); err != nil {
		t.Fatal(err)
	}
	creply, err := tc.coord.ReadContains(ctx, qbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wantTIDs := query.Scan(db, q)
	if creply.Support != len(wantTIDs) {
		t.Errorf("replica support = %d; want %d", creply.Support, len(wantTIDs))
	}
	if strings.Trim(fmt.Sprint(creply.TIDs), "[]") != strings.Trim(fmt.Sprint(wantTIDs), "[]") {
		t.Errorf("replica TIDs = %v; want %v", creply.TIDs, wantTIDs)
	}

	// A dead replica is skipped: reads fail over to the survivor.
	tc.kill(tc.workerIndex(tc.coord.Info(0).Replicas[0]))
	if _, err := tc.coord.ReadTopK(ctx, 3, 0, 0); err != nil {
		t.Fatalf("replica read should fail over to the surviving holder: %v", err)
	}
}

// TestClusterInfo sanity-checks the /v1/cluster document fields.
func TestClusterInfo(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	deadline := time.Now().Add(5 * time.Second)
	for tc.coord.Counters().Heartbeats == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeats arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	info := tc.coord.Info(4)
	if len(info.Members) != 2 || info.Alive != 2 {
		t.Fatalf("info members = %+v", info)
	}
	if len(info.Units) != 4 {
		t.Fatalf("info units = %v; want 4 entries", info.Units)
	}
	for unit, owner := range info.Units {
		if owner != "worker-0" && owner != "worker-1" {
			t.Errorf("unit %s routed to unknown owner %q", unit, owner)
		}
	}
	if info.Counters.Registrations != 2 {
		t.Errorf("registrations = %d; want 2", info.Counters.Registrations)
	}
}
