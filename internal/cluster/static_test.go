package cluster

// static_test.go: the transport behaviours a statically dialed fleet
// (Dial) relies on, pinned end to end through Coordinator.MineUnit —
// eager dial, transparent redial, deadline shipping and enforcement,
// cancellation of an in-flight RPC, refusal of a corrupt reply frame.

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"partminer/internal/codec"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/obs"
	"partminer/internal/pattern"
	"partminer/internal/remote"
)

// oneEdgeDB is the smallest database with a frequent pattern.
func oneEdgeDB() graph.Database {
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.MustAddEdge(0, 1, 0)
	return graph.Database{g}
}

func encodeDB(t *testing.T, db graph.Database) []byte {
	t.Helper()
	frame, err := codec.EncodeDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// stubShard stands in for a worker's Shard service: it records the
// MineUnitArgs it receives, waits for release when one is set, and
// replies with an empty pattern set — one byte of it flipped when corrupt
// is set.
type stubShard struct {
	release chan struct{}
	corrupt bool

	mu   sync.Mutex
	args []MineUnitArgs
}

func (s *stubShard) MineUnit(args MineUnitArgs, reply *MineUnitReply) error {
	s.mu.Lock()
	s.args = append(s.args, args)
	s.mu.Unlock()
	if s.release != nil {
		<-s.release
	}
	frame, err := codec.EncodeSet(make(pattern.Set))
	if err != nil {
		return err
	}
	if s.corrupt {
		frame[len(frame)-1] ^= 0x40
	}
	reply.Set = frame
	return nil
}

// dialStub serves svc as a one-worker static fleet.
func dialStub(t *testing.T, svc *stubShard) *Coordinator {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go new(remote.Server).Serve(l, "Shard", svc) //nolint:errcheck // returns when the listener closes
	coord, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(); err == nil {
		t.Error("empty address list should error")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("unreachable worker should error")
	}
}

func TestStaticRedialsDroppedConnection(t *testing.T) {
	// The worker is healthy but its TCP session drops. The coordinator
	// must redial transparently inside the same call — no failover, no
	// local mine, no recorded error — and count remote.redial.
	tc := startStatic(t, 1)
	col := obs.NewRegistry("")
	tc.coord.SetObserver(col)
	// Dial returns once the client side of the session is up; only a
	// completed RPC proves the worker's accept loop holds the connection
	// for Sever to drop. (Another unit, so the mine after the drop is not
	// a warm-cache hit.)
	if _, err := tc.coord.MineUnit(context.Background(), 1, oneEdgeDB(), 1, 0); err != nil {
		t.Fatal(err)
	}
	tc.workers[0].Sever()

	set, err := tc.coord.MineUnit(context.Background(), 0, oneEdgeDB(), 1, 0)
	if err != nil {
		t.Fatalf("redial should make the drop invisible: %v", err)
	}
	if len(set) == 0 {
		t.Error("expected mined patterns after redial")
	}
	if err := tc.coord.Err(); err != nil {
		t.Errorf("transparent redial must not record errors: %v", err)
	}
	if col.View().Counters["remote.redial"] == 0 {
		t.Error("expected remote.redial > 0")
	}
	if ctrs := tc.coord.Counters(); ctrs.Reassignments != 0 || ctrs.LocalMines != 0 {
		t.Errorf("redial must not be counted as failover: %+v", ctrs)
	}
	if got := tc.workers[0].metrics.unitsMined.Value(); got != 2 {
		t.Errorf("worker mined %d units; want 2 (one before the drop, one after)", got)
	}
}

func TestStaticShipsDeadline(t *testing.T) {
	// The coordinator's context deadline must travel in MineUnitArgs so
	// the worker bounds its own mine.
	stub := &stubShard{}
	coord := dialStub(t, stub)

	dl := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	if _, err := coord.MineUnit(ctx, 3, oneEdgeDB(), 1, 5); err != nil {
		t.Fatal(err)
	}

	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.args) != 1 {
		t.Fatalf("worker saw %d calls; want 1", len(stub.args))
	}
	if got, want := stub.args[0].DeadlineUnixMilli, dl.UnixMilli(); got != want {
		t.Errorf("shipped deadline = %d; want %d", got, want)
	}
	if stub.args[0].MaxEdges != 5 || stub.args[0].UnitKey != UnitKey(3) {
		t.Errorf("shipped MaxEdges, UnitKey = %d, %q; want 5, %q", stub.args[0].MaxEdges, stub.args[0].UnitKey, UnitKey(3))
	}
}

func TestStaticCorruptReplyMinesLocally(t *testing.T) {
	// A reply whose set frame fails its checksum is a failed worker: the
	// coordinator records an error naming it, mines the unit itself, and
	// the answer stays exact.
	coord := dialStub(t, &stubShard{corrupt: true})
	db := testDB(4)
	set, err := coord.MineUnit(context.Background(), 0, db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := gaston.Mine(db, gaston.Options{MinSupport: 2, MaxEdges: 3})
	if len(want) == 0 || !set.Equal(want) {
		t.Fatalf("local fallback diff: %v", set.Diff(want))
	}
	for key, p := range want {
		if !set[key].TIDs.Equal(p.TIDs) {
			t.Fatalf("pattern %s: TIDs %v, want %v", key, set[key].TIDs, p.TIDs)
		}
	}
	if got := coord.Counters().LocalMines; got != 1 {
		t.Errorf("local mines = %d; want 1", got)
	}
	addr := coord.Info(1).Members[0].Addr
	if werr := coord.Err(); werr == nil || !strings.Contains(werr.Error(), addr) || !strings.Contains(werr.Error(), "checksum") {
		t.Errorf("Err() = %v; want the checksum failure of worker %s", werr, addr)
	}
}

func TestWorkerEnforcesShippedDeadline(t *testing.T) {
	// A worker receiving an already-expired deadline must refuse the
	// mine with a deadline error rather than running unbounded, and
	// database bytes that are not a frame are an error, not a panic.
	// Neither counts as mined or is cached.
	w := NewWorker("w")
	expired := MineUnitArgs{
		UnitKey:           UnitKey(0),
		DB:                encodeDB(t, oneEdgeDB()),
		MinSupport:        1,
		DeadlineUnixMilli: time.Now().Add(-time.Second).UnixMilli(),
	}
	var reply MineUnitReply
	if err := w.mineUnit(expired, &reply); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	garbage := MineUnitArgs{UnitKey: UnitKey(0), DB: []byte("garbage"), MinSupport: 1}
	if err := w.mineUnit(garbage, &reply); err == nil {
		t.Error("garbage database should error")
	}
	if mined := w.metrics.unitsMined.Value(); mined != 0 || len(w.warm) != 0 {
		t.Errorf("refused mines counted (%d) or cached (%d)", mined, len(w.warm))
	}
}

func TestStaticCancellationMidRPC(t *testing.T) {
	// The worker is stuck mid-call; cancelling the coordinator's context
	// must abandon the in-flight RPC promptly instead of waiting it out.
	stub := &stubShard{release: make(chan struct{})}
	defer close(stub.release)
	coord := dialStub(t, stub)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	set, err := coord.MineUnit(ctx, 0, oneEdgeDB(), 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if set == nil || len(set) != 0 {
		t.Fatalf("cancelled set = %v; want empty non-nil", set)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the call was not abandoned", elapsed)
	}
}
