package partminer

import (
	"fmt"
	"strings"
	"testing"
)

func TestPublicAPIMineRoundTrip(t *testing.T) {
	db := Generate(GeneratorConfig{D: 60, N: 8, T: 10, I: 4, L: 30, Seed: 1})
	res, err := Mine(db, Options{MinSupport: AbsoluteSupport(db, 0.1), K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("expected frequent patterns")
	}
	for _, p := range res.Patterns {
		if p.Support < 6 {
			t.Errorf("pattern %s below 10%% support", p)
		}
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	db := Generate(GeneratorConfig{D: 50, N: 8, T: 10, I: 4, L: 30, Seed: 2})
	res, err := Mine(db, Options{MinSupport: 5, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	updated := ApplyUpdates(db, UpdateConfig{Fraction: 0.3, Seed: 3, N: 8})
	inc, err := MineIncremental(db, updated, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.UF)+len(inc.IF) != len(inc.Patterns) {
		t.Error("UF+IF must partition the new frequent set")
	}
}

// TestSearchIndexSurvivesIncremental: an incremental round over res patches
// res's feature index for the new database; a SearchIndex built from res
// before it must keep answering for the old one.
func TestSearchIndexSurvivesIncremental(t *testing.T) {
	db := Generate(GeneratorConfig{D: 50, N: 8, T: 10, I: 4, L: 30, Seed: 2})
	res, err := Mine(db, Options{MinSupport: 5, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewSearchIndex(db, res)
	newDB := db.Clone()
	updated := ApplyUpdates(newDB, UpdateConfig{Fraction: 0.3, Seed: 3, N: 8})
	if _, err := MineIncremental(newDB, updated, res); err != nil {
		t.Fatal(err)
	}
	var queries []*Graph
	for _, p := range res.Patterns {
		queries = append(queries, p.Code.Graph())
	}
	for tid := 0; tid < len(db); tid += 5 {
		for _, size := range []int{3, 5} {
			queries = append(queries, bfsPiece(db[tid], size))
		}
	}
	for _, q := range queries {
		got, _ := ix.Find(q)
		if want := SearchScan(db, q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Find after an incremental round = %v, want the old database's %v", got, want)
		}
	}
}

// bfsPiece cuts the connected induced piece of up to size vertices that a
// breadth-first walk from vertex 0 of g reaches first.
func bfsPiece(g *Graph, size int) *Graph {
	keep := []int{0}
	seen := map[int]bool{0: true}
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

func TestPublicAPIBuildGraphManually(t *testing.T) {
	g := NewGraph(0)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	if err := g.AddEdge(a, b, 3); err != nil {
		t.Fatal(err)
	}
	db := Database{g, g.Clone(), g.Clone()}
	res, err := Mine(db, Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns; want the single edge", len(res.Patterns))
	}
}

func TestPublicAPISerialization(t *testing.T) {
	db := Generate(GeneratorConfig{D: 5, N: 5, T: 8, I: 3, L: 10, Seed: 9})
	var sb strings.Builder
	if err := WriteDatabase(&sb, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(db) {
		t.Fatalf("round trip lost graphs: %d vs %d", len(back), len(db))
	}
}

func TestPublicAPIBisectors(t *testing.T) {
	db := Generate(GeneratorConfig{D: 30, N: 6, T: 8, I: 3, L: 20, Seed: 4})
	for _, b := range []Bisector{Partition1, Partition2, Partition3, Metis{}} {
		if _, err := Mine(db, Options{MinSupport: 5, K: 2, MaxEdges: 3, Bisector: b}); err != nil {
			t.Errorf("%T: %v", b, err)
		}
	}
}
