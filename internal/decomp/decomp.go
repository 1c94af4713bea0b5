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
	"slices"

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
	// Candidates are small: the covered set is a list scanned linearly.
	covered := make([]edgeKey, 0, g.EdgeCount())
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u > e.To || hasEdge(covered, u, e.To) {
				continue
			}
			npieces++
			p, key := d.piece(g, u, e.To, &covered)
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
	p, key := d.piece(g, u, v, nil)
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
func (d *Decomposer) piece(g *graph.Graph, u, v int, covered *[]edgeKey) (*pattern.Pattern, string) {
	key := dfscode.MinCode(d.growPiece(g, u, v, covered)).Key()
	if p, found := d.mined[key]; found {
		return p, ""
	}
	return nil, key
}

// edgeKey identifies an undirected edge by its endpoints, smaller first.
type edgeKey struct{ u, v int }

func makeEdgeKey(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// hasEdge reports whether edge (u, v) is in keys.
func hasEdge(keys []edgeKey, u, v int) bool {
	k := makeEdgeKey(u, v)
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// growPiece grows one connected piece from seed edge (su, sv): a BFS
// over edges incident to the piece's vertex set, preferring edges not
// yet covered by an earlier piece so the cover stays small, up to
// pieceMax edges. Every edge absorbed is appended to covered (nil: no
// earlier pieces, nothing to record). The returned graph is the piece
// re-numbered to its own compact vertex space, its vertices in the order
// the BFS reached them.
func (d *Decomposer) growPiece(g *graph.Graph, su, sv int, covered *[]edgeKey) *graph.Graph {
	type edge struct {
		key   edgeKey
		label int
	}
	// A piece has at most pieceMax edges and pieceMax+1 vertices: small
	// lists, scanned linearly.
	order := append(make([]int, 0, 8), su, sv)
	label0, _ := g.EdgeLabel(su, sv)
	edges := append(make([]edge, 0, 8), edge{makeEdgeKey(su, sv), label0})
	inPiece := func(k edgeKey) bool {
		for _, e := range edges {
			if e.key == k {
				return true
			}
		}
		return false
	}
	if covered != nil {
		*covered = append(*covered, edges[0].key)
	}

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
				k := makeEdgeKey(u, e.To)
				if inPiece(k) {
					continue
				}
				if pass == 0 && covered != nil && hasEdge(*covered, u, e.To) {
					continue
				}
				edges = append(edges, edge{k, e.Label})
				if covered != nil {
					*covered = append(*covered, k)
				}
				if !slices.Contains(order, e.To) {
					order = append(order, e.To)
				}
			}
		}
	}

	// Renumber: piece vertex i is order[i].
	var small [16]int
	deg := small[:]
	if len(order) > len(small) {
		deg = make([]int, len(order))
	}
	deg = deg[:len(order)]
	labels := make([]int, len(order))
	for i, v := range order {
		labels[i] = g.Labels[v]
	}
	local := func(v int) int { return slices.Index(order, v) }
	for _, e := range edges {
		deg[local(e.key.u)]++
		deg[local(e.key.v)]++
	}
	sub := graph.NewSized(0, labels, deg)
	for _, e := range edges {
		sub.MustAddEdge(local(e.key.u), local(e.key.v), e.label)
	}
	return sub
}
