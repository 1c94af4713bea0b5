// Package decomp is the cover pruner merge-join runs on large candidates
// before any subpattern is canonicalized or transaction matched: it is
// covered by overlapping small sub-patterns drawn from the already-mined
// set, the intersection of the pieces' exact TID sets bounds the
// candidate's support from above (any supporter of the candidate
// supports every piece), and only candidates whose bound clears minSup
// go on to mergejoin's exact verification.
//
// Soundness of the two prunes rests on one invariant the caller must
// guarantee: the mined set handed to the Decomposer is COMPLETE up to
// the piece size — every frequent connected pattern of at most pieceMax
// edges is present. Then a cover piece missing from the set is
// infrequent, so the candidate is infrequent (cover prune); and a piece
// intersection below minSup bounds the candidate below minSup (upper-
// bound prune). The pruner only ever rejects.
package decomp

import (
	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// DefaultPieceMax is the cover piece size merge-join uses.
// Small pieces keep cover construction and canonicalization cheap while
// the overlap between pieces keeps the intersection bound tight.
const DefaultPieceMax = 4

// Decomposer covers candidate graphs with connected pieces of at most
// pieceMax edges and resolves each piece's exact TID set in a mined
// pattern set. It is immutable after construction and safe for
// concurrent use.
type Decomposer struct {
	pieceMax int
	mined    pattern.Set
}

// NewDecomposer builds a Decomposer over mined, which must be complete
// up to pieceMax edges (every frequent connected pattern of that size or
// smaller is present) for the cover prune to be sound.
func NewDecomposer(mined pattern.Set, pieceMax int) *Decomposer {
	if pieceMax < 1 {
		pieceMax = 1
	}
	return &Decomposer{pieceMax: pieceMax, mined: mined}
}

// Cover greedily covers every edge of g with connected pieces of at most
// pieceMax edges, canonicalizes each piece, and returns the mined TID
// set of every piece (pieces mined without TIDs contribute only their
// presence). A non-empty missing is the canonical key of a piece absent
// from the mined set: given completeness, that piece — and therefore g —
// is infrequent, and the caller should prune g outright. npieces is the
// cover size.
func (d *Decomposer) Cover(g *graph.Graph) (tids []*pattern.TIDSet, npieces int, missing string) {
	n := g.VertexCount()
	covered := make(map[[2]int]bool, g.EdgeCount())
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u > e.To || covered[edgeKey(u, e.To)] {
				continue
			}
			npieces++
			p, key := d.piece(g, u, e.To, covered)
			if p == nil {
				return nil, npieces, key
			}
			if p.TIDs != nil {
				tids = append(tids, p.TIDs)
			}
		}
	}
	return tids, npieces, ""
}

// CoverEdge is Cover cut down to the one piece grown from edge (u, v) of
// g, for a g that is a known-frequent pattern plus that edge: a piece
// avoiding the edge lies inside the frequent pattern, so it is mined and
// its TID set holds every supporter of that pattern — it can neither be
// missing nor tighten a bound that already starts from those supporters.
// tids is empty when the piece was mined without TIDs.
func (d *Decomposer) CoverEdge(g *graph.Graph, u, v int) (tids []*pattern.TIDSet, missing string) {
	p, key := d.piece(g, u, v, make(map[[2]int]bool, d.pieceMax))
	if p == nil {
		return nil, key
	}
	if p.TIDs != nil {
		tids = append(tids, p.TIDs)
	}
	return tids, ""
}

// piece grows the cover piece seeded at edge (u, v) and resolves it in
// the mined set: the mined pattern, or nil and the piece's canonical key
// when it is absent.
func (d *Decomposer) piece(g *graph.Graph, u, v int, covered map[[2]int]bool) (*pattern.Pattern, string) {
	key := dfscode.MinCode(d.growPiece(g, u, v, covered)).Key()
	if p, found := d.mined[key]; found {
		return p, ""
	}
	return nil, key
}

// edgeKey identifies the undirected edge (u, v) in a covered-edge map.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// growPiece grows one connected piece from seed edge (su, sv): a BFS
// over edges incident to the piece's vertex set, preferring edges not
// yet covered by an earlier piece so the cover stays small, up to
// pieceMax edges. Every edge absorbed is marked covered. The returned
// graph is the piece re-numbered to its own compact vertex space.
func (d *Decomposer) growPiece(g *graph.Graph, su, sv int, covered map[[2]int]bool) *graph.Graph {
	type edge struct{ u, v, label int }
	inPiece := map[int]bool{su: true, sv: true}
	order := []int{su, sv}
	label0, _ := g.EdgeLabel(su, sv)
	edges := []edge{{su, sv, label0}}
	covered[edgeKey(su, sv)] = true
	inEdges := map[[2]int]bool{edgeKey(su, sv): true}

	// Two passes over the piece's frontier: absorb uncovered edges
	// first (they shrink future work), then — only if the piece is
	// still below pieceMax — covered ones, which cost nothing extra and
	// tighten the piece's TID bound by making it more specific.
	for pass := 0; pass < 2 && len(edges) < d.pieceMax; pass++ {
		for qi := 0; qi < len(order) && len(edges) < d.pieceMax; qi++ {
			u := order[qi]
			for _, e := range g.Adj[u] {
				if len(edges) >= d.pieceMax {
					break
				}
				k := edgeKey(u, e.To)
				if inEdges[k] {
					continue
				}
				if pass == 0 && covered[k] {
					continue
				}
				inEdges[k] = true
				covered[k] = true
				edges = append(edges, edge{u, e.To, e.Label})
				if !inPiece[e.To] {
					inPiece[e.To] = true
					order = append(order, e.To)
				}
			}
		}
	}

	remap := make(map[int]int, len(order))
	sub := graph.New(0)
	for _, v := range order {
		remap[v] = sub.AddVertex(g.Labels[v])
	}
	for _, e := range edges {
		sub.MustAddEdge(remap[e.u], remap[e.v], e.label)
	}
	return sub
}
