package mergejoin

import (
	"fmt"
	"math/rand"
	"testing"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/partition"
)

// plainCopy rebuilds g with graph.New and MustAddEdge alone: adjacency
// lists grown by append, sharing nothing with g.
func plainCopy(g *graph.Graph) *graph.Graph {
	c := graph.New(g.ID)
	for _, l := range g.Labels {
		c.AddVertex(l)
	}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if u < e.To {
				c.MustAddEdge(u, e.To, e.Label)
			}
		}
	}
	return c
}

// sameGraph reports whether g and want have the same labels, edges and
// per-vertex degrees. Equal runs both ways: one way misses an
// adjacency entry that was overwritten rather than added.
func sameGraph(g, want *graph.Graph) bool {
	if !g.Equal(want) || !want.Equal(g) {
		return false
	}
	for v := range want.Adj {
		if g.Degree(v) != want.Degree(v) {
			return false
		}
	}
	return true
}

// growAndCheck grows h by two new vertices, each joined to every old
// vertex by an edge with its own label — every adjacency list takes two
// appends, past the one spare slot Clone leaves — and checks h against
// the same growth of a plain copy. An append that wrote into a
// neighbour's list (an adjacency carved without a capacity limit) shows
// up as a foreign or missing edge.
func growAndCheck(t *testing.T, name string, h *graph.Graph) {
	t.Helper()
	want := plainCopy(h)
	n := h.VertexCount()
	for r := 0; r < 2; r++ {
		nv := h.AddVertex(100 + r)
		want.AddVertex(100 + r)
		for v := 0; v < n; v++ {
			h.MustAddEdge(v, nv, 100*(r+1)+v)
			want.MustAddEdge(v, nv, 100*(r+1)+v)
		}
	}
	if !sameGraph(h, want) {
		t.Errorf("%s: grown graph\n%v\nwant\n%v", name, h, want)
	}
}

// TestGrownGraphsDoNotAlias grows the graphs the mining path builds at
// their final size — Clone, Code.Graph, removeEdge and both Split parts
// — and checks each against the same graph built plainly, and that the
// graph it was made from did not change. (Cover pieces are checked in
// internal/decomp.)
func TestGrownGraphsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		g := graph.RandomConnected(rng, i, 3+rng.Intn(8), 4+rng.Intn(10), 3, 2)
		before := plainCopy(g)
		code := dfscode.MinCode(g)
		codeBefore := code.Clone()

		grown := map[string]*graph.Graph{
			"Clone":               g.Clone(),
			"Clone of Code.Graph": code.Graph().Clone(),
			"Code.Graph":          code.Graph(),
		}
		for u, adj := range g.Adj {
			for _, e := range adj {
				if u > e.To {
					continue
				}
				if sub := removeEdge(g, u, e.To); sub != nil {
					grown[fmt.Sprintf("removeEdge(%d,%d)", u, e.To)] = sub
				}
			}
		}
		p1, p2 := partition.Split(g, partition.Partition3.Bisect(g))
		grown["Split part 1"], grown["Split part 2"] = p1.G, p2.G

		for name, h := range grown {
			growAndCheck(t, fmt.Sprintf("graph %d, %s", i, name), h)
		}
		if !sameGraph(g, before) {
			t.Fatalf("graph %d changed by growing what was built from it:\n%v\nwas\n%v", i, g, before)
		}
		if !code.Equal(codeBefore) {
			t.Fatalf("graph %d: code changed by growing its graph: %v, was %v", i, code, codeBefore)
		}
	}
}
