package mergejoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/index"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// splitDB bisects every graph of db and returns the two index-aligned
// partition databases.
func splitDB(db graph.Database, b partition.Bisector) (graph.Database, graph.Database) {
	d0 := make(graph.Database, len(db))
	d1 := make(graph.Database, len(db))
	for i, g := range db {
		p0, p1 := partition.GraphPart2(g, b)
		d0[i], d1[i] = p0.G, p1.G
	}
	return d0, d1
}

// TestMergeRecoversTheorem3 is the paper's lossless-recovery guarantee:
// mining two partitions at half support and merge-joining equals mining
// the whole database directly.
func TestMergeRecoversTheorem3(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 6, 6+rng.Intn(3), 8+rng.Intn(4), 3, 2)
		minSup := 2 + rng.Intn(2)
		maxEdges := 4

		want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})

		for _, bis := range []partition.Bisector{partition.Partition2, partition.Partition3, partition.Metis{}} {
			d0, d1 := splitDB(db, bis)
			half := (minSup + 1) / 2
			p0 := gspan.Mine(d0, gspan.Options{MinSupport: half, MaxEdges: maxEdges})
			p1 := gspan.Mine(d1, gspan.Options{MinSupport: half, MaxEdges: maxEdges})
			got := Merge(db, p0, p1, Config{MinSupport: minSup, MaxEdges: maxEdges})
			if !got.Equal(want) {
				t.Logf("seed %d bisector %T diff: %v", seed, bis, got.Diff(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestMergeUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	db := graph.RandomDatabase(rng, 5, 5, 5, 2, 2)
	minSup := 2
	want := gspan.Mine(db, gspan.Options{MinSupport: minSup})
	d0, d1 := splitDB(db, partition.Partition2)
	p0 := gspan.Mine(d0, gspan.Options{MinSupport: 1})
	p1 := gspan.Mine(d1, gspan.Options{MinSupport: 1})
	got := Merge(db, p0, p1, Config{MinSupport: minSup})
	if !got.Equal(want) {
		t.Fatalf("diff: %v", got.Diff(want))
	}
}

// TestFrequentEdgesExact checks the merge's level 1, read off the
// feature index, on a hand-built database and against a plain scan of
// random ones.
func TestFrequentEdgesExact(t *testing.T) {
	g1 := graph.New(0)
	g1.AddVertex(0)
	g1.AddVertex(1)
	g1.AddVertex(0)
	g1.MustAddEdge(0, 1, 5)
	g1.MustAddEdge(1, 2, 5)
	g2 := graph.New(1)
	g2.AddVertex(1)
	g2.AddVertex(0)
	g2.MustAddEdge(0, 1, 5)
	db := graph.Database{g1, g2}
	got := index.Build(db).FrequentEdges(2)
	if len(got) != 1 {
		t.Fatalf("got %d frequent edges; want 1", len(got))
	}
	for _, p := range got {
		if p.Support != 2 || p.TIDs.Count() != 2 {
			t.Errorf("edge pattern support = %d TIDs=%v; want 2", p.Support, p.TIDs)
		}
		e := p.Code[0]
		if e.LI != 0 || e.LE != 5 || e.LJ != 1 {
			t.Errorf("edge labels (%d,%d,%d); want (0,5,1)", e.LI, e.LE, e.LJ)
		}
	}
	if got := index.Build(db).FrequentEdges(3); len(got) != 0 {
		t.Error("support 3 should eliminate everything")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		db := graph.RandomDatabase(rng, 12, 6, 9, 3, 2)
		for _, minSup := range []int{1, 3, 6} {
			got, want := index.Build(db).FrequentEdges(minSup), frequentEdges(db, minSup)
			if !got.Equal(want) {
				t.Fatalf("db %d minSup %d: index %v, scan %v", i, minSup, got.Diff(want), want.Diff(got))
			}
			for key, p := range want {
				if !p.TIDs.Equal(got[key].TIDs) {
					t.Fatalf("db %d minSup %d: %s TIDs %v, scan %v", i, minSup, key, got[key].TIDs, p.TIDs)
				}
			}
		}
	}
}

// frequentEdges scans s for frequent 1-edge patterns with exact supports
// (Fig. 11 line 1). The merge itself reads these off the feature index
// (index.FeatureIndex.FrequentEdges); the scan is the reference
// implementation the differential tests compare the index against.
func frequentEdges(s graph.Database, minSup int) pattern.Set {
	type key struct{ li, le, lj int }
	tids := make(map[key]*pattern.TIDSet)
	for tid, g := range s {
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				if u > e.To {
					continue
				}
				li, lj := g.Labels[u], g.Labels[e.To]
				if li > lj {
					li, lj = lj, li
				}
				k := key{li, e.Label, lj}
				ts, ok := tids[k]
				if !ok {
					ts = pattern.NewTIDSet(len(s))
					tids[k] = ts
				}
				ts.Add(tid)
			}
		}
	}
	out := make(pattern.Set)
	for k, ts := range tids {
		if sup := ts.Count(); sup >= minSup {
			code := dfscode.Code{{I: 0, J: 1, LI: k.li, LE: k.le, LJ: k.lj}}
			out[code.Key()] = &pattern.Pattern{Code: code, Support: sup, TIDs: ts}
		}
	}
	return out
}

func TestExtensionsGeneration(t *testing.T) {
	// Pattern: single edge 0-0 with label 0. Frequent triples: (0,0,0) and
	// (0,1,1).
	set := make(pattern.Set)
	add := func(li, le, lj int) {
		c := dfscode.Code{{I: 0, J: 1, LI: li, LE: le, LJ: lj}}
		set[c.Key()] = &pattern.Pattern{Code: c, Support: 5}
	}
	add(0, 0, 0)
	add(0, 1, 1)
	ti := edgeTriples(set)

	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.MustAddEdge(0, 1, 0)
	exts, _ := extensions(g, ti, nil, nil, 1, nil)
	// Expected: no connect candidates (only vertex pair is adjacent);
	// pendant candidates: from each of the two vertices, (le=0, lx=0) and
	// (le=1, lx=1) -> 4 graphs.
	if len(exts) != 4 {
		t.Fatalf("got %d extensions; want 4", len(exts))
	}
	for _, e := range exts {
		if e.g.EdgeCount() != 2 || e.g.VertexCount() != 3 {
			t.Errorf("extension has wrong shape: %v", e.g)
		}
		if l, ok := e.g.EdgeLabel(e.u, e.v); !ok || l > 1 {
			t.Errorf("added-edge bookkeeping wrong: (%d,%d) label %d ok=%v", e.u, e.v, l, ok)
		}
	}

	// A 2-path of 0-labeled vertices can also close a triangle.
	p2 := graph.New(0)
	p2.AddVertex(0)
	p2.AddVertex(0)
	p2.AddVertex(0)
	p2.MustAddEdge(0, 1, 0)
	p2.MustAddEdge(1, 2, 0)
	exts, _ = extensions(p2, ti, nil, nil, 1, nil)
	closes := 0
	for _, e := range exts {
		if e.g.VertexCount() == 3 && e.g.EdgeCount() == 3 {
			closes++
		}
	}
	if closes != 1 {
		t.Errorf("triangle-closing extensions = %d; want 1", closes)
	}
}

// removals returns the connected subgraphs obtained from g by deleting one
// edge (and any vertex the deletion isolates). Disconnecting deletions are
// skipped: the paper's Apriori property concerns connected subgraphs only.
func removals(g *graph.Graph) []*graph.Graph {
	var out []*graph.Graph
	for u := 0; u < g.VertexCount(); u++ {
		for _, e := range g.Adj[u] {
			if u > e.To {
				continue
			}
			if sub := removeEdge(g, u, e.To); sub != nil {
				out = append(out, sub)
			}
		}
	}
	return out
}

func TestRemovals(t *testing.T) {
	// Triangle plus pendant: 4 edges. Removing the pendant edge leaves the
	// triangle (connected); removing any triangle edge leaves a connected
	// 3-edge graph. All 4 removals are connected.
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(2, 0, 0)
	g.MustAddEdge(0, 3, 0)
	subs := removals(g)
	if len(subs) != 4 {
		t.Fatalf("removals = %d; want 4", len(subs))
	}
	for _, s := range subs {
		if !s.Connected() || s.EdgeCount() != 3 {
			t.Errorf("removal not a connected 3-edge graph: %v", s)
		}
	}

	// A 2-path: both removals leave single edges.
	p := graph.New(0)
	p.AddVertex(0)
	p.AddVertex(1)
	p.AddVertex(2)
	p.MustAddEdge(0, 1, 0)
	p.MustAddEdge(1, 2, 0)
	subs = removals(p)
	if len(subs) != 2 {
		t.Fatalf("path removals = %d; want 2", len(subs))
	}
	for _, s := range subs {
		if s.EdgeCount() != 1 || s.VertexCount() != 2 {
			t.Errorf("path removal should drop the isolated endpoint: %v", s)
		}
	}

	// A "bowtie" where removal disconnects: two triangles sharing a
	// vertex... removing a bridge edge of a 2-star disconnects.
	star := graph.New(0)
	star.AddVertex(0)
	star.AddVertex(1)
	star.AddVertex(2)
	star.MustAddEdge(0, 1, 0)
	star.MustAddEdge(0, 2, 0)
	subs = removals(star)
	if len(subs) != 2 {
		t.Fatalf("star removals = %d; want 2 (each leaves one edge)", len(subs))
	}
}

func TestMergeWithEmptySides(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	want := gspan.Mine(db, gspan.Options{MinSupport: 2, MaxEdges: 3})
	// Merging with empty unit results: extension mode still recovers
	// everything from the exact 1-edge scan upward.
	got := Merge(db, make(pattern.Set), make(pattern.Set), Config{MinSupport: 2, MaxEdges: 3})
	if !got.Equal(want) {
		t.Fatalf("diff: %v", got.Diff(want))
	}
}

func TestMergeMinSupClamp(t *testing.T) {
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.MustAddEdge(0, 1, 0)
	db := graph.Database{g}
	got := Merge(db, make(pattern.Set), make(pattern.Set), Config{MinSupport: 0})
	if len(got) != 1 {
		t.Errorf("MinSupport 0 should clamp to 1; got %d patterns", len(got))
	}
}

func TestMergeParallelWorkersEqualSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := graph.RandomDatabase(rng, 10, 7, 10, 3, 2)
	d0, d1 := splitDB(db, partition.Partition2)
	p0 := gspan.Mine(d0, gspan.Options{MinSupport: 1, MaxEdges: 4})
	p1 := gspan.Mine(d1, gspan.Options{MinSupport: 1, MaxEdges: 4})
	serial := Merge(db, p0, p1, Config{MinSupport: 2, MaxEdges: 4})
	for _, workers := range []int{2, 4, 16} {
		par := Merge(db, p0, p1, Config{MinSupport: 2, MaxEdges: 4, Pool: exec.NewPool(workers)})
		if !par.Equal(serial) {
			t.Fatalf("workers=%d diff: %v", workers, par.Diff(serial))
		}
	}
}

func TestMergeStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := graph.RandomDatabase(rng, 8, 6, 8, 3, 2)
	d0, d1 := splitDB(db, partition.Partition2)
	p0 := gspan.Mine(d0, gspan.Options{MinSupport: 1, MaxEdges: 3})
	p1 := gspan.Mine(d1, gspan.Options{MinSupport: 1, MaxEdges: 3})
	var st Stats
	set := Merge(db, p0, p1, Config{MinSupport: 2, MaxEdges: 3, Stats: &st})
	if st.Candidates == 0 {
		t.Error("expected candidates to be counted")
	}
	if st.UnitSeeded == 0 {
		t.Error("expected unit-seeded candidates")
	}
	// Frequent counts only multi-edge survivors (1-edge patterns come from
	// the direct scan), so it must be less than the full set size.
	multi := 0
	for _, p := range set {
		if p.Size() > 1 {
			multi++
		}
	}
	if st.Frequent != int64(multi) {
		t.Errorf("Frequent = %d; want %d multi-edge patterns", st.Frequent, multi)
	}
	if st.Pruned+st.Frequent > st.Candidates {
		t.Errorf("pruned(%d)+frequent(%d) exceeds candidates(%d)", st.Pruned, st.Frequent, st.Candidates)
	}

	// Incremental mode should carry TIDs.
	var ist Stats
	newDB := db.Clone()
	newDB[0].Labels[0] = 9
	upd := pattern.NewTIDSet(len(db))
	upd.Add(0)
	Merge(newDB, p0, p1, Config{MinSupport: 2, MaxEdges: 3, Old: set, Updated: upd, Stats: &ist})
	if ist.CarriedTIDs == 0 {
		t.Error("incremental merge should carry supporters from the old set")
	}
}

// TestStatsCountersMatchObserver: Stats.Counters must use exactly the
// names and values reportStats mirrors into an Observer — they are the
// same numbers surfaced through two doors.
func TestStatsCountersMatchObserver(t *testing.T) {
	st := &Stats{Candidates: 9, UnitSeeded: 2, Pruned: 5, TriplePruned: 3,
		DecompPruned: 2, BorderPruned: 1, PairPruned: 7, SigPruned: 4, IsoTests: 17, CarriedTIDs: 6, Frequent: 1}
	c := obs.NewRegistry("")
	reportStats(c, st)
	got := c.View().Counters
	want := st.Counters()
	if len(got) != len(want) {
		t.Fatalf("observer saw %d counters, Counters() has %d", len(got), len(want))
	}
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("counter %s: observer %d, Counters() %d", name, got[name], v)
		}
	}
}

// TestPathKeyCode: the canonical code a path key spells out directly is
// MinCode's for every small labelling of a 2-edge path.
func TestPathKeyCode(t *testing.T) {
	const labels = 3
	for c := 0; c < labels; c++ {
		for e1 := 0; e1 < labels; e1++ {
			for l1 := 0; l1 < labels; l1++ {
				for e2 := 0; e2 < labels; e2++ {
					for l2 := 0; l2 < labels; l2++ {
						g := graph.New(0)
						g.AddVertex(l1)
						g.AddVertex(c)
						g.AddVertex(l2)
						g.MustAddEdge(0, 1, e1)
						g.MustAddEdge(1, 2, e2)
						k := makePathKey(c, e1, l1, e2, l2)
						if got, want := k.code().Key(), dfscode.MinCode(g).Key(); got != want {
							t.Fatalf("path %v: code %s, MinCode %s", k, got, want)
						}
						pt := pathTableOf(pattern.Set{"p": {Code: dfscode.MinCode(g)}})
						if _, ok := pt[k]; len(pt) != 1 || !ok {
							t.Fatalf("path %v: table from its pattern is %v", k, pt)
						}
					}
				}
			}
		}
	}
}
