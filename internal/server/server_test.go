package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partminer/internal/core"
	"partminer/internal/graph"
	"partminer/internal/gspan"
)

func testDB(seed int64, count int) graph.Database {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomDatabase(rng, count, 6, 8, 3, 2)
}

// fingerprint digests the snapshot's observable state — pattern keys
// with supports, database shape — into one order-independent hash.
// Consistency tests record it per epoch at publication and verify that
// every concurrent read observes a recorded (epoch, fingerprint) pair.
func fingerprint(s *Snapshot) uint64 {
	var acc uint64
	for key, p := range s.Res.Patterns {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte("="))
		h.Write([]byte(strconv.Itoa(p.Support)))
		acc += h.Sum64() // commutative fold: map order must not matter
	}
	h := fnv.New64a()
	h.Write([]byte(strconv.Itoa(len(s.DB))))
	h.Write([]byte("/"))
	h.Write([]byte(strconv.Itoa(s.DB.TotalEdges())))
	return acc + h.Sum64()
}

func testConfig() Config {
	return Config{Mine: core.Options{MinSupport: 2, K: 2, MaxEdges: 4}}
}

// mustStart mines db and registers cleanup.
func mustStart(t *testing.T, db graph.Database, cfg Config) *Server {
	t.Helper()
	s, err := Start(context.Background(), db, cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// requireFreshEqual is the differential oracle: the snapshot's pattern
// set must be exactly what a fresh full PartMiner run over the
// snapshot's database produces — same keys, same supports, same TID
// sets.
func requireFreshEqual(t *testing.T, snap *Snapshot, opts core.Options) {
	t.Helper()
	opts.Observer = nil
	fresh, err := core.MineContext(context.Background(), snap.DB, opts)
	if err != nil {
		t.Fatalf("fresh mine: %v", err)
	}
	if !snap.Res.Patterns.Equal(fresh.Patterns) {
		t.Fatalf("epoch %d: snapshot has %d patterns, fresh mine %d (or supports differ)",
			snap.Epoch, len(snap.Res.Patterns), len(fresh.Patterns))
	}
	for key, p := range snap.Res.Patterns {
		fp := fresh.Patterns[key]
		if (p.TIDs == nil) != (fp.TIDs == nil) || (p.TIDs != nil && !p.TIDs.Equal(fp.TIDs)) {
			t.Fatalf("epoch %d: pattern %q TID set differs from fresh mine", snap.Epoch, key)
		}
	}
}

// TestApplyDifferential folds several update batches — covering every op
// kind — and checks after each swap that the published snapshot is
// bit-for-bit what a fresh mine of the updated database yields. It runs
// without and with a growth envelope; with one, the patterns past it — in
// place folds and an add_graph behind them — must read back over HTTP as
// exactly gSpan's patterns of those sizes on the served database.
func TestApplyDifferential(t *testing.T) {
	for _, envelope := range []int{0, 2} {
		applyDifferential(t, envelope)
	}
}

func applyDifferential(t *testing.T, envelope int) {
	db := testDB(1, 12)
	cfg := testConfig()
	cfg.Mine.GrowthEnvelope = envelope
	s := mustStart(t, db, cfg)
	requireFreshEqual(t, s.Snapshot(), cfg.Mine)

	newGraph := "t # 0\nv 0 1\nv 1 2\nv 2 0\ne 0 1 0\ne 1 2 1\n"
	batches := [][]Op{
		{{Kind: OpRelabelVertex, TID: 0, U: 0, Label: 2}, {Kind: OpAddVertex, TID: 1, Label: 1}},
		{{Kind: OpAddVertex, TID: 2, Label: 0}, {Kind: OpAddEdge, TID: 2, U: 0, V: 6, Label: 1}},
		{{Kind: OpRelabelEdge, TID: 3, U: 0, V: 1, Label: 1}},
		{{Kind: OpRemoveEdge, TID: 4, U: 0, V: 1}},
		{{Kind: OpClearGraph, TID: 5}},
		{{Kind: OpReplaceGraph, TID: 6, Graph: newGraph}},
		{{Kind: OpAddGraph, Graph: newGraph}},              // grows the db: full re-mine
		{{Kind: OpRelabelVertex, TID: 12, U: 0, Label: 0}}, // touch the added graph
	}
	epoch := uint64(1)
	for i, ops := range batches {
		res, err := s.Apply(context.Background(), ops)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		epoch++
		if res.Epoch != epoch {
			t.Fatalf("batch %d: epoch %d, want %d", i, res.Epoch, epoch)
		}
		if res.Ops != len(ops) {
			t.Fatalf("batch %d: applied %d ops, want %d", i, res.Ops, len(ops))
		}
		snap := s.Snapshot()
		if snap.Epoch != epoch {
			t.Fatalf("batch %d: snapshot epoch %d, want %d", i, snap.Epoch, epoch)
		}
		requireFreshEqual(t, snap, cfg.Mine)
	}

	// The add_graph batch must have re-mined from scratch; shape-
	// preserving batches must not.
	st := s.Stats()
	if st.FullRemines < 1 {
		t.Errorf("full remines = %d, want >= 1 (add_graph batch)", st.FullRemines)
	}
	if st.FullRemines >= st.Batches {
		t.Errorf("every batch was a full re-mine (%d/%d); incremental path never used", st.FullRemines, st.Batches)
	}
	if st.OpsApplied == 0 || st.Epoch != epoch {
		t.Errorf("stats = %+v, want ops applied and epoch %d", st, epoch)
	}

	if envelope == 0 {
		return
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var large struct {
		Patterns []patternJSON `json:"patterns"`
	}
	get(t, fmt.Sprintf("%s/v1/patterns?k=0&min_edges=%d&tids=1", ts.URL, envelope+1), http.StatusOK, &large)
	want := gspan.Mine(s.Snapshot().DB, gspan.Options{MinSupport: cfg.Mine.MinSupport, MaxEdges: cfg.Mine.MaxEdges})
	for _, p := range large.Patterns {
		w, ok := want[p.Key]
		if !ok || p.Size <= envelope || !reflect.DeepEqual(p.TIDs, w.TIDs.Slice()) {
			t.Errorf("served pattern %s (size %d, tids %v) is not gSpan's", p.Code, p.Size, p.TIDs)
		}
		delete(want, p.Key)
	}
	for _, w := range want {
		if w.Size() > envelope {
			t.Errorf("gSpan's %s is not served past the envelope", w.Code)
		}
	}
	if len(large.Patterns) == 0 {
		t.Error("nothing was mined past the envelope")
	}
}

// TestApplyRejectsAtomically checks all-or-nothing semantics: a request
// with any invalid op leaves no trace, even when valid ops precede the
// bad one, and does not consume an epoch.
func TestApplyRejectsAtomically(t *testing.T) {
	db := testDB(2, 8)
	cfg := testConfig()
	s := mustStart(t, db, cfg)
	before := s.Snapshot()

	bad := [][]Op{
		{{Kind: OpRelabelVertex, TID: 0, U: 0, Label: 9}, {Kind: OpAddEdge, TID: 99, U: 0, V: 1}},
		{{Kind: OpRelabelVertex, TID: 0, U: 999, Label: 9}},
		{{Kind: OpRemoveEdge, TID: 0, U: 0, V: 0}},
		{{Kind: OpReplaceGraph, TID: 0, Graph: "not a graph"}},
		{{Kind: OpKind("nonsense")}},
	}
	for i, ops := range bad {
		if _, err := s.Apply(context.Background(), ops); err == nil {
			t.Fatalf("bad batch %d was accepted", i)
		}
	}
	after := s.Snapshot()
	if after != before {
		t.Fatalf("rejected batches published a new snapshot (epoch %d -> %d)", before.Epoch, after.Epoch)
	}
	if st := s.Stats(); st.OpsRejected == 0 || st.OpsApplied != 0 {
		t.Fatalf("stats after rejects = %+v", st)
	}

	// A valid request sharing a graph with a rejected one must still see
	// the untouched original.
	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 0, U: 0, Label: 3}}); err != nil {
		t.Fatalf("valid apply after rejects: %v", err)
	}
	requireFreshEqual(t, s.Snapshot(), cfg.Mine)
}

// TestGroupCommit: the writer folds what is queued when it wakes, with no
// timer. A configured BatchWindow, even an hour, is ignored: a lone Apply
// is folded at once, and that fold is held open in OnSwap while N more
// Apply calls queue up; released, the loop folds all N together into the
// next epoch.
func TestGroupCommit(t *testing.T) {
	const n = 5
	cfg := testConfig()
	cfg.BatchWindow = time.Hour
	entered, release, quit := make(chan struct{}), make(chan struct{}), make(chan struct{})
	cfg.OnSwap = func(snap *Snapshot) {
		if snap.Epoch != 2 {
			return
		}
		select {
		case entered <- struct{}{}:
			<-release
		case <-quit: // the test gave up: let Close drain
		}
	}
	s := mustStart(t, testDB(5, 10), cfg)
	t.Cleanup(func() { close(quit) }) // runs before mustStart's Close
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	relabel := func(tid int) []Op { return []Op{{Kind: OpRelabelVertex, TID: tid, U: 0, Label: 1}} }

	first := make(chan error, 1)
	go func() {
		_, err := s.Apply(ctx, relabel(0))
		first <- err
	}()
	select {
	case <-entered: // the writer is inside the fold of epoch 2
	case <-ctx.Done():
		t.Fatal("the writer did not fold a lone Apply: it waits for a timer")
	}
	queued := make(chan applyResp, n)
	for i := 1; i <= n; i++ {
		go func() {
			res, err := s.Apply(ctx, relabel(i))
			queued <- applyResp{res, err}
		}()
	}
	for len(s.reqs) < n {
		select {
		case r := <-queued:
			t.Fatalf("an Apply returned while the fold was held (epoch %d, error %v)", r.res.Epoch, r.err)
		case <-ctx.Done():
			t.Fatalf("%d of %d Apply calls queued before the deadline", len(s.reqs), n)
		default:
			runtime.Gosched()
		}
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := <-queued
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res.Epoch != 3 || r.res.Batched != n || r.res.Ops != 1 {
			t.Errorf("apply %d: epoch %d, batched %d, ops %d; want all %d in epoch 3", i, r.res.Epoch, r.res.Batched, r.res.Ops, n)
		}
	}
	requireFreshEqual(t, s.Snapshot(), cfg.Mine)
}

// TestEmptyApplyAndClose covers the no-op path and Apply-after-Close.
func TestEmptyApplyAndClose(t *testing.T) {
	s := mustStart(t, testDB(3, 6), testConfig())
	res, err := s.Apply(context.Background(), nil)
	if err != nil || res.Epoch != 1 {
		t.Fatalf("empty apply = %+v, %v; want epoch 1, nil", res, err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex}}); err != ErrClosed {
		t.Fatalf("apply after close = %v, want ErrClosed", err)
	}
}

// TestConcurrentReadsDuringSwaps is the RCU consistency test (run it
// with -race): reader goroutines hammer the snapshot — pattern lookups,
// top-k, containment search — while the update loop folds batches and
// swaps snapshots. Every read must observe a snapshot whose fingerprint
// was recorded at publication for that exact epoch: no torn state, no
// mutation of published snapshots.
func TestConcurrentReadsDuringSwaps(t *testing.T) {
	db := testDB(4, 10)
	cfg := testConfig()
	var published sync.Map // epoch -> fingerprint, recorded before the swap
	cfg.OnSwap = func(snap *Snapshot) { published.Store(snap.Epoch, fingerprint(snap)) }
	s := mustStart(t, db, cfg)

	probe := graph.New(0)
	probe.AddVertex(0)
	probe.AddVertex(1)
	probe.MustAddEdge(0, 1, 0)

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := s.Snapshot()
				want, ok := published.Load(snap.Epoch)
				if !ok {
					t.Errorf("read snapshot at unpublished epoch %d", snap.Epoch)
					return
				}
				if got := fingerprint(snap); got != want.(uint64) {
					t.Errorf("epoch %d fingerprint changed after publication: %d != %d", snap.Epoch, got, want)
					return
				}
				top := snap.TopKRange(5, 0, 0)
				for _, p := range top {
					if snap.Pattern(p.Code.Key()) != p {
						t.Errorf("epoch %d: top-k pattern not reachable by key", snap.Epoch)
						return
					}
				}
				tids, _ := snap.Contains(probe)
				for _, tid := range tids {
					if tid < 0 || tid >= len(snap.DB) {
						t.Errorf("epoch %d: contains returned tid %d outside db of %d", snap.Epoch, tid, len(snap.DB))
						return
					}
				}
				reads.Add(1)
			}
		}()
	}

	// The writer side: concurrent Apply calls exercise batching too.
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 6; i++ {
				ops := []Op{{Kind: OpRelabelVertex, TID: (w*6 + i) % len(db), U: 0, Label: (w + i) % 4}}
				if _, err := s.Apply(context.Background(), ops); err != nil {
					t.Errorf("writer %d apply %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()

	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	final := s.Snapshot()
	if final.Epoch < 2 {
		t.Fatalf("no swaps happened (epoch %d)", final.Epoch)
	}
	requireFreshEqual(t, final, cfg.Mine)
}

// TestRestoreWarmStart round-trips the service through the snapshot
// file: save, load, Restore, then keep folding updates incrementally.
func TestRestoreWarmStart(t *testing.T) {
	db := testDB(5, 10)
	cfg := testConfig()
	s := mustStart(t, db, cfg)
	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 1, U: 0, Label: 2}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, snap.Res); err != nil {
		t.Fatalf("save: %v", err)
	}
	db2, res2, err := core.LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	s2, err := Restore(context.Background(), db2, res2, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Close()

	if !s2.Snapshot().Res.Patterns.Equal(snap.Res.Patterns) {
		t.Fatal("restored pattern set differs from the saved one")
	}
	if _, err := s2.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 2, U: 0, Label: 0}}); err != nil {
		t.Fatalf("apply on restored server: %v", err)
	}
	requireFreshEqual(t, s2.Snapshot(), cfg.Mine)
}

// TestMineFallsBackOnUnlistedChange: core refuses an incremental fold
// whose database differs from the previous one outside the listed graphs;
// the server answers with a full re-mine rather than failing the batch or
// publishing stale carried TIDs.
func TestMineFallsBackOnUnlistedChange(t *testing.T) {
	db := testDB(9, 10)
	cfg := testConfig()
	s := mustStart(t, db, cfg)
	cur := s.Snapshot()

	staged := append(graph.Database(nil), cur.DB...)
	for _, tid := range []int{2, 6} {
		staged[tid] = staged[tid].Clone()
		staged[tid].Labels[0] = (staged[tid].Labels[0] + 1) % 3
	}
	res, full, err := s.mine(context.Background(), cur, staged, map[int]bool{2: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !full {
		t.Fatal("an understated changed set was folded incrementally")
	}
	requireFreshEqual(t, &Snapshot{DB: staged, Res: res}, cfg.Mine)

	// With graph 6 listed the same database folds incrementally.
	res, full, err = s.mine(context.Background(), cur, staged, map[int]bool{2: true, 6: true}, false)
	if err != nil || full {
		t.Fatalf("a fully listed change did not fold incrementally (full=%t err=%v)", full, err)
	}
	requireFreshEqual(t, &Snapshot{DB: staged, Res: res}, cfg.Mine)
}
