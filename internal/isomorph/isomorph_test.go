package isomorph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"partminer/internal/graph"
)

func triangle(labels [3]int, elabels [3]int) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	g.MustAddEdge(0, 1, elabels[0])
	g.MustAddEdge(1, 2, elabels[1])
	g.MustAddEdge(2, 0, elabels[2])
	return g
}

func path(labels []int, elabels []int) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i, el := range elabels {
		g.MustAddEdge(i, i+1, el)
	}
	return g
}

func TestContainsBasics(t *testing.T) {
	tri := triangle([3]int{0, 0, 0}, [3]int{1, 1, 1})
	p2 := path([]int{0, 0, 0}, []int{1, 1})
	if !Contains(tri, p2) {
		t.Error("path of 2 edges should be contained in the triangle (non-induced)")
	}
	if Contains(p2, tri) {
		t.Error("triangle must not be contained in a 2-edge path")
	}
	if !Contains(tri, tri) {
		t.Error("graph should contain itself")
	}
	// Label mismatch blocks containment.
	p2b := path([]int{0, 1, 0}, []int{1, 1})
	if Contains(tri, p2b) {
		t.Error("vertex-label mismatch should block containment")
	}
	p2c := path([]int{0, 0, 0}, []int{1, 2})
	if Contains(tri, p2c) {
		t.Error("edge-label mismatch should block containment")
	}
}

func TestContainsEmptyPattern(t *testing.T) {
	g := path([]int{0, 1}, []int{0})
	if !Contains(g, graph.New(0)) {
		t.Error("empty pattern should be contained everywhere")
	}
}

// embeddings drives the matcher's search to completion and returns every
// pattern→target vertex mapping it visits.
func embeddings(target, pattern *graph.Graph) [][]int {
	var out [][]int
	NewMatcher(pattern).search(target, func(mapping []int) bool {
		out = append(out, append([]int(nil), mapping...))
		return true
	})
	return out
}

func TestEmbeddingCounts(t *testing.T) {
	// A triangle with uniform labels has 6 automorphic embeddings of
	// itself and 6 embeddings of the 2-edge path.
	tri := triangle([3]int{0, 0, 0}, [3]int{1, 1, 1})
	if n := len(embeddings(tri, tri)); n != 6 {
		t.Errorf("triangle self-embeddings = %d; want 6", n)
	}
	p2 := path([]int{0, 0, 0}, []int{1, 1})
	embs := embeddings(tri, p2)
	if len(embs) != 6 {
		t.Fatalf("path embeddings in triangle = %d; want 6", len(embs))
	}
	seenMid := map[int]bool{}
	for _, m := range embs {
		if len(m) != 3 {
			t.Fatalf("embedding %v has wrong arity", m)
		}
		seenMid[m[1]] = true
	}
	if len(seenMid) != 3 {
		t.Errorf("middle vertex of the path should range over all 3 triangle vertices, got %v", seenMid)
	}
}

func TestEmbeddingsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := graph.RandomConnected(rng, 0, 6+rng.Intn(4), 10+rng.Intn(5), 3, 2)
		pn := 2 + rng.Intn(3)
		pat := graph.RandomConnected(rng, 1, pn, pn, 3, 2)
		for _, m := range embeddings(target, pat) {
			// Injectivity.
			seen := map[int]bool{}
			for _, tv := range m {
				if seen[tv] {
					return false
				}
				seen[tv] = true
			}
			// Labels and edges preserved.
			for pv, tv := range m {
				if pat.Labels[pv] != target.Labels[tv] {
					return false
				}
				for _, e := range pat.Adj[pv] {
					if l, ok := target.EdgeLabel(tv, m[e.To]); !ok || l != e.Label {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomSubgraphAlwaysContained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(rng, 0, 8, 12, 3, 2)
		// Take a random connected induced piece via BFS of random size.
		start := rng.Intn(g.VertexCount())
		want := 2 + rng.Intn(4)
		keep := []int{start}
		seen := map[int]bool{start: true}
		for i := 0; i < len(keep) && len(keep) < want; i++ {
			for _, e := range g.Adj[keep[i]] {
				if !seen[e.To] && len(keep) < want {
					seen[e.To] = true
					keep = append(keep, e.To)
				}
			}
		}
		sub, _ := g.InducedSubgraph(keep)
		if !sub.Connected() {
			return true // BFS guarantees connectivity, but be safe
		}
		return Contains(g, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSupportCounting(t *testing.T) {
	tri := triangle([3]int{0, 0, 0}, [3]int{1, 1, 1})
	p := path([]int{0, 0}, []int{1})
	other := path([]int{5, 6}, []int{7})
	db := graph.Database{tri, other, tri.Clone()}
	if s := Support(db, p); s != 2 {
		t.Errorf("Support = %d; want 2", s)
	}
	if s := SupportIn(db, p, []int{1}); s != 0 {
		t.Errorf("SupportIn({1}) = %d; want 0", s)
	}
	if s := SupportIn(db, p, []int{0, 2}); s != 2 {
		t.Errorf("SupportIn({0,2}) = %d; want 2", s)
	}
	// The empty pattern is contained in every graph.
	if s := Support(db, graph.New(0)); s != len(db) {
		t.Errorf("Support(empty) = %d; want %d", s, len(db))
	}
	if s := SupportIn(db, graph.New(0), []int{1, 2}); s != 2 {
		t.Errorf("SupportIn(empty, {1,2}) = %d; want 2", s)
	}
}

func TestDegreePruningDoesNotOverPrune(t *testing.T) {
	// Star pattern requires a degree-3 hub; a path target has none.
	star := graph.New(0)
	star.AddVertex(0)
	for i := 0; i < 3; i++ {
		v := star.AddVertex(1)
		star.MustAddEdge(0, v, 0)
	}
	p := path([]int{1, 0, 1, 0, 1}, []int{0, 0, 0, 0})
	if Contains(p, star) {
		t.Error("star should not embed into a path")
	}
	// But the star embeds into a bigger star with extra rays.
	big := graph.New(0)
	big.AddVertex(0)
	for i := 0; i < 5; i++ {
		v := big.AddVertex(1)
		big.MustAddEdge(0, v, 0)
	}
	if !Contains(big, star) {
		t.Error("star should embed into a larger star")
	}
}

func TestMatchOrderConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		g := graph.RandomConnected(rng, 0, 2+rng.Intn(8), 12, 3, 2)
		order, _ := matchOrderInto(g, nil, nil, nil)
		if len(order) != g.VertexCount() {
			t.Fatalf("order %v misses vertices", order)
		}
		placed := map[int]bool{order[0]: true}
		for _, v := range order[1:] {
			ok := false
			for _, e := range g.Adj[v] {
				if placed[e.To] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("vertex %d placed without an ordered neighbor (order %v)", v, order)
			}
			placed[v] = true
		}
	}
}
