package mergejoin

import (
	"context"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// figure8Graph builds a graph in the spirit of the paper's Figure 8: a
// 6-vertex graph G whose bisection into G1 and G2 shares connective
// edges, used to demonstrate that P(G) is recovered from P(G1) and P(G2).
// The printed figure's exact labels are ambiguous in the text extraction,
// so the test asserts the operation's contract rather than a hand-copied
// pattern list: the merge-join of the two parts recovers exactly the
// subgraph set of G.
func figure8Graph() *graph.Graph {
	g := graph.New(0)
	labels := []int{0, 1, 0, 2, 1, 0}
	for _, l := range labels {
		g.AddVertex(l)
	}
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 0)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(2, 4, 0)
	g.MustAddEdge(3, 5, 1)
	return g
}

// TestFigure8MergeJoinWorkedExample follows the Figure 8 flow: split one
// graph into two parts (both keeping the connective edges), enumerate all
// subgraphs of each part, and merge-join back. The result must be the
// complete subgraph set of G — the light-grey ∪ dark-grey ∪ joined region
// of Figure 8(b).
func TestFigure8MergeJoinWorkedExample(t *testing.T) {
	g := figure8Graph()
	db := graph.Database{g}

	// All subgraphs of G, directly (support threshold 1 on the single
	// graph: every connected subgraph).
	want := gspan.Mine(db, gspan.Options{MinSupport: 1})

	for _, bis := range []partition.Bisector{partition.Partition2, partition.Partition3} {
		p1, p2 := partition.GraphPart2(g, bis)
		d1 := graph.Database{p1.G}
		d2 := graph.Database{p2.G}
		set1 := gspan.Mine(d1, gspan.Options{MinSupport: 1})
		set2 := gspan.Mine(d2, gspan.Options{MinSupport: 1})

		// Neither side alone can hold all of P(G)...
		if set1.Equal(want) || set2.Equal(want) {
			t.Fatalf("%T: a part already contains every subgraph; the split is degenerate", bis)
		}
		// ...but the merge-join recovers it losslessly (Theorem 1).
		got, err := MergeContext(context.Background(), db, set1, set2, Config{MinSupport: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%T diff: %v", bis, got.Diff(want))
		}
	}
}

// TestFigure9BaseCase is the induction base of Theorem 1: a 2-edge graph
// split on its middle vertex is recovered from its two 1-edge parts.
func TestFigure9BaseCase(t *testing.T) {
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.MustAddEdge(0, 1, 7)
	g.MustAddEdge(1, 2, 8)
	db := graph.Database{g}

	// Split: side one = {v0}, side two = {v1, v2}; both parts include the
	// connective edge (v0, v1).
	p1, p2 := partition.Split(g, []bool{true, false, false})
	set1 := gspan.Mine(graph.Database{p1.G}, gspan.Options{MinSupport: 1})
	set2 := gspan.Mine(graph.Database{p2.G}, gspan.Options{MinSupport: 1})

	got, err := MergeContext(context.Background(), db, set1, set2, Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := gspan.Mine(db, gspan.Options{MinSupport: 1})
	if !got.Equal(want) {
		t.Fatalf("base case diff: %v", got.Diff(want))
	}
	// The recovered set is exactly: two 1-edge subgraphs + G itself.
	if len(got) != 3 {
		t.Errorf("P(G) has %d members; want 3", len(got))
	}
	var twoEdge *pattern.Pattern
	for _, p := range got {
		if p.Size() == 2 {
			twoEdge = p
		}
	}
	if twoEdge == nil || twoEdge.Support != 1 {
		t.Errorf("the full graph should be recovered with support 1, got %v", twoEdge)
	}
}
