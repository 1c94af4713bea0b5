package extend

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
)

func edge(li, le, lj int) *graph.Graph {
	g := graph.New(0)
	g.AddVertex(li)
	g.AddVertex(lj)
	g.MustAddEdge(0, 1, le)
	return g
}

func TestInitialFindsFrequentEdges(t *testing.T) {
	db := graph.Database{edge(0, 1, 2), edge(0, 1, 2), edge(3, 4, 5)}
	cands := Initial(DB(db), 2)
	if len(cands) != 1 {
		t.Fatalf("got %d candidates; want 1", len(cands))
	}
	c := cands[0]
	if c.Edge.LI != 0 || c.Edge.LE != 1 || c.Edge.LJ != 2 {
		t.Errorf("edge code = %+v", c.Edge)
	}
	if c.Proj.Support() != 2 {
		t.Errorf("support = %d; want 2", c.Proj.Support())
	}
	tids := c.Proj.TIDs(len(db))
	if !tids.Contains(0) || !tids.Contains(1) || tids.Contains(2) {
		t.Errorf("TIDs = %v", tids)
	}
}

func TestInitialSymmetricEdgeBothOrientations(t *testing.T) {
	// An edge with equal endpoint labels yields two embeddings.
	g := edge(7, 1, 7)
	cands := Initial(DB(graph.Database{g}), 1)
	if len(cands) != 1 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if n := len(cands[0].Proj); n != 2 {
		t.Errorf("symmetric edge should have 2 embeddings, got %d", n)
	}
}

func TestInitialSortedCanonically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := graph.RandomDatabase(rng, 10, 6, 9, 4, 3)
	cands := Initial(DB(db), 1)
	for i := 1; i < len(cands); i++ {
		if dfscode.Less(cands[i].Edge, cands[i-1].Edge) {
			t.Fatal("Initial candidates not in canonical order")
		}
	}
}

func TestExtensionsAgreeWithMinCodeGrowth(t *testing.T) {
	// Growing a frequent edge by every extension and keeping canonical
	// ones must discover exactly the 2-edge subgraphs of the database.
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 1)
	db := graph.Database{g}
	src := DB(db)

	seen := map[string]bool{}
	for _, c := range Initial(src, 1) {
		code := dfscode.Code{c.Edge}
		for _, ext := range Extensions(src, code, c.Proj, nil) {
			child := append(code.Clone(), ext.Edge)
			if dfscode.IsCanonical(child) {
				seen[child.Key()] = true
			}
		}
	}
	// The only 2-edge connected subgraph is the whole path.
	want := dfscode.MinCode(g)
	if !seen[want.Key()] {
		t.Errorf("missing pattern %v; saw %v", want, seen)
	}
	if len(seen) != 1 {
		t.Errorf("expected exactly 1 canonical 2-edge pattern, got %d", len(seen))
	}
}

func TestExtensionsCloseCycles(t *testing.T) {
	tri := graph.New(0)
	tri.AddVertex(0)
	tri.AddVertex(0)
	tri.AddVertex(0)
	tri.MustAddEdge(0, 1, 0)
	tri.MustAddEdge(1, 2, 0)
	tri.MustAddEdge(2, 0, 0)
	db := graph.Database{tri}
	src := DB(db)

	cands := Initial(src, 1)
	if len(cands) != 1 {
		t.Fatalf("want 1 frequent edge, got %d", len(cands))
	}
	code := dfscode.Code{cands[0].Edge}
	// Grow to the 2-edge path first.
	var pathProj Projection
	var pathCode dfscode.Code
	for _, ext := range Extensions(src, code, cands[0].Proj, nil) {
		child := append(code.Clone(), ext.Edge)
		if dfscode.IsCanonical(child) {
			pathCode, pathProj = child, ext.Proj
		}
	}
	if pathCode == nil {
		t.Fatal("no canonical 2-edge extension")
	}
	// Extensions close the triangle (a backward edge).
	sawBackward := false
	for _, ext := range Extensions(src, pathCode, pathProj, nil) {
		if !ext.Edge.Forward() {
			sawBackward = true
		}
	}
	if !sawBackward {
		t.Error("expected a backward (cycle-closing) extension")
	}
}

func TestProjectionSupportDistinctTIDs(t *testing.T) {
	p := Projection{
		Seed(0, 0, 1),
		Seed(0, 1, 0),
		Seed(2, 3, 4),
	}
	if p.Support() != 2 {
		t.Errorf("Support = %d; want 2 (distinct TIDs)", p.Support())
	}
	tids := p.TIDs(3)
	if !tids.Contains(0) || tids.Contains(1) || !tids.Contains(2) {
		t.Errorf("TIDs = %v", tids)
	}
}

func TestDBSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := graph.RandomDatabase(rng, 3, 4, 4, 2, 2)
	src := DB(db)
	if src.Len() != 3 {
		t.Errorf("Len = %d", src.Len())
	}
	if src.Graph(1) != db[1] {
		t.Error("Graph should return the underlying graph")
	}
}

// seedsByScan builds InitialSeeds' input the way a feature index would:
// every triple of db (frequent or not), sorted, occurrences in TID order.
func seedsByScan(db graph.Database) []Seed1 {
	occ := make(map[labelTriple][]EdgeOcc)
	for tid, g := range db {
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				lu, lv := g.Labels[u], g.Labels[e.To]
				if lu > lv || (lu == lv && u > e.To) {
					continue
				}
				t := labelTriple{lu, e.Label, lv}
				occ[t] = append(occ[t], EdgeOcc{TID: tid, U: u, V: e.To})
			}
		}
	}
	var seeds []Seed1
	for t, o := range occ {
		seeds = append(seeds, Seed1{LI: t.li, LE: t.le, LJ: t.lj, Occ: o})
	}
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		if a.LI != b.LI {
			return a.LI < b.LI
		}
		if a.LE != b.LE {
			return a.LE < b.LE
		}
		return a.LJ < b.LJ
	})
	return seeds
}

func sameCandidates(t *testing.T, what string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates; want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Edge != want[i].Edge {
			t.Fatalf("%s: candidate %d is %+v; want %+v", what, i, got[i].Edge, want[i].Edge)
		}
		if len(got[i].Proj) != len(want[i].Proj) {
			t.Fatalf("%s: %+v has %d embeddings; want %d", what, want[i].Edge, len(got[i].Proj), len(want[i].Proj))
		}
		for j, m := range want[i].Proj {
			if g := got[i].Proj[j]; g.TID != m.TID || !reflect.DeepEqual(g.Verts(), m.Verts()) {
				t.Fatalf("%s: %+v embedding %d is tid %d %v; want tid %d %v", what, want[i].Edge, j, g.TID, g.Verts(), m.TID, m.Verts())
			}
		}
	}
}

// TestExtensionsFilteredByAlphabet grows patterns on 50 seeded databases
// with enough labels that some triples are infrequent, and holds an
// Extender seeded by Initial or InitialSeeds to the unfiltered standalone
// enumeration: at every grown pattern it must return exactly the
// candidates whose label triple is frequent by a brute count, embeddings
// and order included.
func TestExtensionsFilteredByAlphabet(t *testing.T) {
	dropped := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 8+rng.Intn(4), 6, 6+rng.Intn(4), 5, 3)
		src := DB(db)
		minSup := 3 + rng.Intn(2)

		sup := make(map[labelTriple]int)
		for _, g := range db {
			seen := make(map[labelTriple]bool)
			for u := 0; u < g.VertexCount(); u++ {
				for _, e := range g.Adj[u] {
					seen[makeTriple(g.Labels[u], e.Label, g.Labels[e.To])] = true
				}
			}
			for tr := range seen {
				sup[tr]++
			}
		}
		frequent := func(e dfscode.EdgeCode) bool { return sup[makeTriple(e.LI, e.LE, e.LJ)] >= minSup }

		scanned := NewExtender()
		seeded := NewExtender()
		roots := scanned.Initial(src, minSup)
		sameCandidates(t, "InitialSeeds vs Initial", seeded.InitialSeeds(seedsByScan(db), minSup), roots)
		for _, c := range roots {
			if !frequent(c.Edge) {
				t.Fatalf("seed %d: Initial kept infrequent %+v", seed, c.Edge)
			}
		}

		var grow func(code dfscode.Code, proj Projection)
		grow = func(code dfscode.Code, proj Projection) {
			var want []Candidate
			for _, c := range Extensions(src, code, proj, nil) {
				if frequent(c.Edge) {
					want = append(want, c)
				} else {
					dropped++
				}
			}
			got := scanned.Extensions(src, code, proj, nil)
			sameCandidates(t, fmt.Sprintf("seed %d, %v", seed, code), got, want)
			sameCandidates(t, fmt.Sprintf("seed %d, %v (seeded)", seed, code), seeded.Extensions(src, code, proj, nil), want)
			if len(code) == 3 {
				return
			}
			for _, c := range got {
				child := append(code.Clone(), c.Edge)
				if c.Proj.Support() >= minSup && dfscode.IsCanonical(child) {
					grow(child, c.Proj)
				}
			}
		}
		for _, c := range roots {
			grow(dfscode.Code{c.Edge}, c.Proj)
		}
	}
	if dropped == 0 {
		t.Fatal("no extension had an infrequent triple: the filter was never exercised")
	}
}
