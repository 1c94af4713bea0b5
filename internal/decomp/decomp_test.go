package decomp

import (
	"math/rand"
	"testing"

	"partminer/internal/graph"
)

// plainCopy rebuilds g with graph.New and MustAddEdge alone.
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

// TestGrownPiecesDoNotAlias is TestGrownGraphsDoNotAlias
// (internal/mergejoin) for cover pieces, which growPiece builds at their
// final size: grown by a new vertex joined to every piece vertex, a piece
// must equal the same growth of a plain copy, and the candidate it was
// cut from must not change.
func TestGrownPiecesDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDecomposer(nil, DefaultPieceMax)
	for i := 0; i < 40; i++ {
		g := graph.RandomConnected(rng, i, 3+rng.Intn(8), 4+rng.Intn(10), 3, 2)
		before := plainCopy(g)
		var covered []edgeKey
		for u, adj := range g.Adj {
			for _, e := range adj {
				if u > e.To || hasEdge(covered, u, e.To) {
					continue
				}
				piece := d.growPiece(g, u, e.To, &covered)
				want := plainCopy(piece)
				n := piece.VertexCount()
				nv := piece.AddVertex(100)
				want.AddVertex(100)
				for v := 0; v < n; v++ {
					piece.MustAddEdge(v, nv, 100+v)
					want.MustAddEdge(v, nv, 100+v)
				}
				if !piece.Equal(want) || !want.Equal(piece) {
					t.Fatalf("graph %d, piece at (%d,%d): grown piece\n%v\nwant\n%v", i, u, e.To, piece, want)
				}
			}
		}
		if !g.Equal(before) || !before.Equal(g) {
			t.Fatalf("graph %d changed by growing its pieces", i)
		}
	}
}
