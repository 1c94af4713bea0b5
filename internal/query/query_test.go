package query

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/dfscode"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/pattern"
)

func testDB(seed int64, d int) graph.Database {
	return datagen.Generate(datagen.Config{D: d, N: 8, T: 12, I: 4, L: 30, Seed: seed})
}

// queryFrom cuts a small connected piece out of a database graph so
// queries have nonempty answers.
func queryFrom(rng *rand.Rand, g *graph.Graph, size int) *graph.Graph {
	start := rng.Intn(g.VertexCount())
	keep := []int{start}
	seen := map[int]bool{start: true}
	for i := 0; i < len(keep) && len(keep) < size; i++ {
		for _, e := range g.Adj[keep[i]] {
			if !seen[e.To] && len(keep) < size {
				seen[e.To] = true
				keep = append(keep, e.To)
			}
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

// buildIndex is the reference index of these tests: db mined with Gaston
// at max(2, |db|/20) up to 4 edges, adopted through IndexFromPatterns.
func buildIndex(db graph.Database, opts IndexOptions) *Index {
	fx := index.Build(db)
	set := gaston.Mine(db, gaston.Options{MinSupport: max(2, len(db)/20), MaxEdges: 4})
	return IndexFromPatterns(db, fx, set, opts)
}

// multiEdge returns the index's mined patterns of two or more edges,
// smallest first — queries that must take the planned path.
func multiEdge(ix *Index) []*pattern.Pattern {
	var out []*pattern.Pattern
	for size, by := range ix.planned.BySize() {
		if size >= 2 {
			out = append(out, by...)
		}
	}
	return out
}

func TestFindMatchesScan(t *testing.T) {
	db := testDB(1, 60)
	ix := buildIndex(db, IndexOptions{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		if !q.Connected() || q.EdgeCount() == 0 {
			return true
		}
		got, _ := ix.Find(q)
		want := Scan(db, q)
		if len(got) != len(want) {
			t.Logf("seed %d: got %v want %v", seed, got, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCandidatesPrune(t *testing.T) {
	db := testDB(3, 80)
	ix := buildIndex(db, IndexOptions{PlanMaxEdges: -1})
	rng := rand.New(rand.NewSource(4))
	prunedSomething := false
	for i := 0; i < 20; i++ {
		q := queryFrom(rng, db[rng.Intn(len(db))], 4)
		if q.EdgeCount() < 2 {
			continue
		}
		got, st := ix.Find(q)
		if st.Candidates < len(db) {
			prunedSomething = true
		}
		if st.Candidates < len(got) || st.Verified != len(got) {
			t.Fatalf("stats %+v inconsistent with %d answers", st, len(got))
		}
	}
	if !prunedSomething {
		t.Error("narrowing never pruned anything across 20 queries")
	}
}

func TestUnknownEdgeShortCircuits(t *testing.T) {
	db := testDB(5, 30)
	ix := buildIndex(db, IndexOptions{})
	q := graph.New(0)
	q.AddVertex(999) // label never generated
	q.AddVertex(999)
	q.MustAddEdge(0, 1, 999)
	got, st := ix.Find(q)
	if st.Candidates != 0 {
		t.Errorf("impossible edge should yield zero candidates, got %d", st.Candidates)
	}
	if len(got) != 0 {
		t.Errorf("Find returned %v for impossible query", got)
	}
}

func TestIndexOptionDefaults(t *testing.T) {
	o := IndexOptions{}.normalize()
	if o.PlanMaxEdges != 8 || o.CacheSize != 1024 {
		t.Errorf("defaults = %+v", o)
	}
	o = IndexOptions{PlanMaxEdges: -1, CacheSize: -1}.normalize()
	if o.PlanMaxEdges != -1 || o.CacheSize != -1 {
		t.Errorf("negative settings not kept: %+v", o)
	}
}

// TestAdHocFindAllocs bounds the allocations of an uncached ad-hoc read:
// canonicalization, the label/triple narrowing and posted VF2 cost a few
// dozen. A per-read filter that matches pattern graphs against the query
// costs thousands, and fails this.
func TestAdHocFindAllocs(t *testing.T) {
	db := testDB(3, 80)
	ix := buildIndex(db, IndexOptions{CacheSize: -1})
	rng := rand.New(rand.NewSource(23))
	var queries []*graph.Graph
	for attempt := 0; attempt < 2000 && len(queries) < 20; attempt++ {
		q := queryFrom(rng, db[rng.Intn(len(db))], 4+rng.Intn(3))
		if n := q.EdgeCount(); n < 3 || n > 6 || !q.Connected() {
			continue
		}
		if _, st := ix.Find(q); !st.PlanHit {
			queries = append(queries, q)
		}
	}
	if len(queries) < 20 {
		t.Fatalf("found %d ad-hoc 3-6-edge queries in 2000 attempts, want 20", len(queries))
	}
	for i, q := range queries {
		if allocs := testing.AllocsPerRun(5, func() { ix.Find(q) }); allocs > 100 {
			t.Errorf("query %d (%d edges): ad-hoc Find allocates %.0f times, want <= 100", i, q.EdgeCount(), allocs)
		}
	}
}

// TestMinCodeAllocs gates the canonical form's pooled scratch: on the
// graph family of bench.BenchMinDFSCode (random connected graphs, 8
// vertices, 12 edges, 4 vertex and 3 edge labels) a warm MinCode
// allocates only the code it returns. Per-embedding vertex slices cost
// dozens per call.
func TestMinCodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	rng := rand.New(rand.NewSource(1))
	graphs := make([]*graph.Graph, 64)
	for i := range graphs {
		graphs[i] = graph.RandomConnected(rng, i, 8, 12, 4, 3)
		dfscode.MinCode(graphs[i]) // warm the scratch
	}
	i := 0
	allocs := testing.AllocsPerRun(4*len(graphs), func() {
		dfscode.MinCode(graphs[i%len(graphs)])
		i++
	})
	if allocs > 1 {
		t.Errorf("warm MinCode allocates %.0f times per call, want <= 1", allocs)
	}
}

// TestMineAllocs bounds the allocations of one core.PartMiner run (K=2,
// 5 %) on a fixed 100-graph datagen database. The mining path allocates
// per call, not per embedding, piece or seed, and the merge-join builds
// no graph for an extension the two-edge path filter rejects: about
// 34 400 allocations here, 71 900 when every extension was built and
// canonicalised, 193 900 when MinCode, the candidate graphs, the cover
// pieces, the signatures and GraphPart allocated per step and the
// feature index kept occurrence lists.
func TestMineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	const ceiling = 37_840 // the count above + 10 %
	db := datagen.Generate(datagen.Config{D: 100, T: 10, N: 8, L: 20, I: 4, Seed: 1})
	opts := core.Options{MinSupport: len(db) / 20, K: 2}
	if _, err := core.PartMiner(db, opts); err != nil { // warm the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.PartMiner(db, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n > ceiling {
		t.Errorf("PartMiner allocated %d times, want <= %d", n, ceiling)
	}
}

// TestFoldAllocs bounds the allocations of one warm 10 % core.IncPartMiner
// fold on TestMineAllocs' database. A fold mines no unit, and it filters
// extensions before it builds them, as a mine does: it probes the old
// border on each extension's key and runs the two-edge path filter
// first, so it builds and canonicalises only the survivors. It reuses
// the mine's sub-key memo, so it canonicalises no removal an earlier run
// of the chain already did: about 12 730 allocations here, 16 420 when
// every fold built its own memo, 26 900 when a fold re-mined the units
// whose pieces changed, 32 520 when it also built and canonicalised every
// extension so that its old border could see each one first.
//
// A one-graph fold, the service's kind, is bounded too: it keeps every
// old pattern no updated graph can touch by pointer, extends no parent
// without an updated supporter, and copies only the index sets the
// update touches: about 3 310 allocations here, 8 300 when it re-seeded
// and re-checked every old pattern.
func TestFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	const (
		ceiling    = 14_000 // the count above + 10 %
		oneCeiling = 3_640  // one-graph fold: 3 310 + 10 %
	)
	db := datagen.Generate(datagen.Config{D: 100, T: 10, N: 8, L: 20, I: 4, Seed: 1})
	prev, err := core.PartMiner(db, core.Options{MinSupport: len(db) / 20, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each fold patches the index it is given, so each gets its own clone.
	fold := func(next graph.Database, tids []int) uint64 {
		p := *prev
		p.Index = prev.Index.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := core.IncPartMiner(next, tids, &p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	next := db.Clone()
	tids := datagen.ApplyUpdates(next, datagen.UpdateConfig{Fraction: 0.1, Seed: 1})
	fold(next, tids) // warm the pools
	if n := fold(next, tids); n > ceiling {
		t.Errorf("IncPartMiner allocated %d times, want <= %d", n, ceiling)
	}
	one := db.Clone()
	datagen.ApplyUpdates(one[37:38], datagen.UpdateConfig{Fraction: 1, Seed: 1})
	fold(one, []int{37})
	if n := fold(one, []int{37}); n > oneCeiling {
		t.Errorf("one-graph IncPartMiner fold allocated %d times, want <= %d", n, oneCeiling)
	}
}

// TestIndexFromPatternsMatchesScan: an index assembled from an
// already-mined pattern set must answer exactly like Scan — the server's
// per-snapshot path.
func TestIndexFromPatternsMatchesScan(t *testing.T) {
	db := testDB(3, 50)
	ix := buildIndex(db, IndexOptions{})
	if ix.PlanCount() == 0 {
		t.Fatal("no patterns adopted from the mined set")
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		q := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		if !q.Connected() || q.EdgeCount() == 0 {
			continue
		}
		got, _ := ix.Find(q)
		want := Scan(db, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %v want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: got %v want %v", i, got, want)
			}
		}
	}
}
