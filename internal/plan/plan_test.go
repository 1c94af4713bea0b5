package plan

import (
	"math/rand"
	"testing"

	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

// --- fixtures ---------------------------------------------------------

func clique(n, vlabel, elabel int) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(vlabel)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j, elabel)
		}
	}
	return g
}

func star(leaves int, centerLabel, leafLabel, elabel int) *graph.Graph {
	g := graph.New(0)
	g.AddVertex(centerLabel)
	for i := 0; i < leaves; i++ {
		v := g.AddVertex(leafLabel)
		g.MustAddEdge(0, v, elabel)
	}
	return g
}

func cycle(n, vlabel, elabel int) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(vlabel)
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n, elabel)
	}
	return g
}

func path(edges, vlabel, elabel int) *graph.Graph {
	g := graph.New(0)
	g.AddVertex(vlabel)
	for i := 0; i < edges; i++ {
		v := g.AddVertex(vlabel)
		g.MustAddEdge(v-1, v, elabel)
	}
	return g
}

// triangleLabeled has three distinct vertex labels: Aut is trivial.
func triangleLabeled() *graph.Graph {
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(0, 2, 0)
	return g
}

// mixedStar has two leaf labels (2 + 2): Aut = 2! * 2! = 4.
func mixedStar() *graph.Graph {
	g := graph.New(0)
	g.AddVertex(0)
	for i := 0; i < 2; i++ {
		v := g.AddVertex(1)
		g.MustAddEdge(0, v, 0)
	}
	for i := 0; i < 2; i++ {
		v := g.AddVertex(2)
		g.MustAddEdge(0, v, 0)
	}
	return g
}

func fixtures() []struct {
	name string
	g    *graph.Graph
	aut  int
} {
	return []struct {
		name string
		g    *graph.Graph
		aut  int
	}{
		{"triangle", clique(3, 0, 0), 6},
		{"K4", clique(4, 0, 0), 24},
		{"K5", clique(5, 0, 0), 120},
		{"star4", star(4, 0, 0, 0), 24},
		{"star5", star(5, 0, 0, 0), 120},
		{"C4", cycle(4, 0, 0), 8},
		{"C5", cycle(5, 0, 0), 10},
		{"C6", cycle(6, 0, 0), 12},
		{"P2", path(2, 0, 0), 2},
		{"P3", path(3, 0, 0), 2},
		{"triangleLabeled", triangleLabeled(), 1},
		{"mixedStar", mixedStar(), 4},
	}
}

// TestAutomorphismCounts pins |Aut(P)| for the symmetric fixtures: the
// restriction compiler is built on this enumeration.
func TestAutomorphismCounts(t *testing.T) {
	for _, f := range fixtures() {
		pl := Compile(f.g, nil)
		if pl.Automorphisms != f.aut {
			t.Errorf("%s: Automorphisms = %d, want %d", f.name, pl.Automorphisms, f.aut)
		}
		if f.aut > 1 && pl.Restrictions == 0 {
			t.Errorf("%s: nontrivial Aut but no restrictions compiled", f.name)
		}
		if f.aut == 1 && pl.Restrictions != 0 {
			t.Errorf("%s: trivial Aut but %d restrictions", f.name, pl.Restrictions)
		}
	}
}

// validEmbedding checks emb is a genuine injective label- and
// edge-preserving map of p into tg.
func validEmbedding(t *testing.T, p, tg *graph.Graph, emb []int) {
	t.Helper()
	seen := map[int]bool{}
	for v := 0; v < p.VertexCount(); v++ {
		tv := emb[v]
		if seen[tv] {
			t.Fatalf("embedding not injective: %v", emb)
		}
		seen[tv] = true
		if tg.Labels[tv] != p.Labels[v] {
			t.Fatalf("embedding label mismatch at %d: %v", v, emb)
		}
	}
	for v := 0; v < p.VertexCount(); v++ {
		for _, e := range p.Adj[v] {
			if l, ok := tg.EdgeLabel(emb[v], emb[e.To]); !ok || l != e.Label {
				t.Fatalf("embedding drops edge (%d,%d): %v", v, e.To, emb)
			}
		}
	}
}

// TestSymmetryBreakingExact is the automorphism-heavy fixture pin: over
// cliques, stars, cycles, and paths embedded in random targets, the
// planned search must enumerate exactly one representative per
// automorphism class — never a duplicate, never a dropped class — so
// plannedCount * |Aut| equals the unrestricted VF2 embedding count, and
// boolean containment is unchanged.
func TestSymmetryBreakingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var targets []*graph.Graph
	for i := 0; i < 12; i++ {
		// Uniform labels so the symmetric fixtures actually embed.
		targets = append(targets, graph.RandomConnected(rng, i, 5+rng.Intn(6), 6+rng.Intn(14), 1, 1))
	}
	targets = append(targets, clique(6, 0, 0), cycle(8, 0, 0), star(7, 0, 0, 0))
	for _, f := range fixtures() {
		pl := Compile(f.g, nil)
		// The pattern embedded in itself has exactly one canonical
		// embedding (the identity's class).
		if f.g.Connected() {
			if got := pl.CountEmbeddings(f.g); got != 1 {
				t.Errorf("%s: CountEmbeddings(self) = %d, want 1", f.name, got)
			}
		}
		for ti, tg := range targets {
			want := isomorph.CountEmbeddings(tg, f.g)
			embs := pl.Embeddings(tg)
			if len(embs)*pl.Automorphisms != want {
				t.Errorf("%s vs target %d: planned %d * aut %d != vf2 %d",
					f.name, ti, len(embs), pl.Automorphisms, want)
			}
			seen := map[string]bool{}
			for _, emb := range embs {
				validEmbedding(t, f.g, tg, emb)
				key := ""
				for _, v := range emb {
					key += string(rune(v)) + ","
				}
				if seen[key] {
					t.Fatalf("%s vs target %d: duplicate embedding %v", f.name, ti, emb)
				}
				seen[key] = true
			}
			if pl.Match(tg, nil) != isomorph.Contains(tg, f.g) {
				t.Errorf("%s vs target %d: Match disagrees with Contains", f.name, ti)
			}
		}
	}
}

// TestPlanDifferential is the 50-seed plan-vs-Scan/plan-vs-VF2 pin: for
// every mined pattern the planned support set must be bit-identical to
// the mined TID bitset (itself differential-pinned to brute force), and
// for near-miss mutations of mined patterns the planned answer must
// equal a direct isomorph scan.
func TestPlanDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		db := graph.RandomDatabase(rng, 10+rng.Intn(15), 6+rng.Intn(8), 7+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(3))
		fx := index.Build(db)
		set := gaston.Mine(db, gaston.Options{MinSupport: 2 + rng.Intn(3), MaxEdges: 5, Index: fx})
		for _, p := range set {
			if p.Size() < 1 {
				continue
			}
			pl := Compile(p.Code.Graph(), fx)
			got := pl.SupportTIDs(fx)
			if !got.Equal(p.TIDs) {
				t.Fatalf("seed %d pattern %s: planned TIDs %v, mined %v", seed, p.Code.Key(), got, p.TIDs)
			}
			// Near-miss: mutate the mined pattern and check the planned
			// answer against a direct scan.
			q := p.Code.Graph().Clone()
			switch rng.Intn(3) {
			case 0: // grow a pendant vertex with a possibly-absent label
				v := q.AddVertex(rng.Intn(6))
				q.MustAddEdge(rng.Intn(v), v, rng.Intn(4))
			case 1: // relabel a vertex
				q.Labels[rng.Intn(q.VertexCount())] = rng.Intn(6)
			case 2: // add a chord if the pattern allows one
				if q.VertexCount() >= 3 {
					a, b := rng.Intn(q.VertexCount()), rng.Intn(q.VertexCount())
					if a != b && !q.HasEdge(a, b) {
						q.MustAddEdge(a, b, rng.Intn(4))
					}
				}
			}
			want := pattern.NewTIDSet(len(db))
			for tid, g := range db {
				if isomorph.Contains(g, q) {
					want.Add(tid)
				}
			}
			qpl := Compile(q, fx)
			if got := qpl.SupportTIDs(fx); !got.Equal(want) {
				t.Fatalf("seed %d near-miss: planned TIDs %v, scan %v\n%v", seed, got, want, q)
			}
		}
	}
}

// TestDisconnectedAndDegenerate pins graceful behavior off the happy
// path: disconnected patterns match correctly (just without symmetry
// breaking), and the empty pattern is contained everywhere.
func TestDisconnectedAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Two disjoint edges with distinct labels.
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(0)
	g.AddVertex(2)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(2, 3, 1)
	pl := Compile(g, nil)
	if pl.Automorphisms != 1 || pl.Restrictions != 0 {
		t.Fatalf("disconnected pattern must skip symmetry breaking, got aut=%d restr=%d", pl.Automorphisms, pl.Restrictions)
	}
	for i := 0; i < 30; i++ {
		tg := graph.RandomConnected(rng, i, 4+rng.Intn(6), 4+rng.Intn(10), 3, 2)
		if got, want := pl.Match(tg, nil), isomorph.Contains(tg, g); got != want {
			t.Fatalf("target %d: disconnected Match=%v, Contains=%v", i, got, want)
		}
	}
	empty := Compile(graph.New(0), nil)
	if !empty.Match(graph.RandomConnected(rng, 99, 3, 3, 2, 2), nil) {
		t.Fatal("empty pattern must match everything")
	}
	if empty.CountEmbeddings(graph.New(1)) != 0 {
		t.Fatal("empty pattern has no embeddings")
	}
}

// TestPostedMatchAgrees checks the posting-list root path (the indexed
// server path) agrees with the unposted one.
func TestPostedMatchAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := graph.RandomDatabase(rng, 20, 8, 12, 3, 2)
	fx := index.Build(db)
	for i := 0; i < 40; i++ {
		q := graph.RandomConnected(rng, 1000+i, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		pl := Compile(q, fx)
		for tid, g := range db {
			posted := pl.Match(g, fx.Lister(tid))
			plain := pl.Match(g, nil)
			if posted != plain {
				t.Fatalf("query %d tid %d: posted=%v plain=%v", i, tid, posted, plain)
			}
		}
	}
}
