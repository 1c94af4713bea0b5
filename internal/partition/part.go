// Package partition implements the paper's Phase 1: dividing each graph of
// a database into subgraphs and grouping the subgraphs into k units
// (§4.1, Figs. 5 and 6). It provides the GraphPart bisection algorithm with
// its update-frequency/connectivity weight function, a METIS-like
// multilevel bisection baseline, and the partition tree that PartMiner's
// merge-join later walks bottom-up.
package partition

import (
	"fmt"
	"sort"

	"partminer/internal/graph"
)

// Part is one side of a bisected graph. The part's graph has its own dense
// vertex ids; Orig maps them back to the vertex ids of the graph that was
// split, so that parts can be recombined losslessly.
type Part struct {
	G    *graph.Graph
	Orig []int
}

// Bisector splits a graph's vertex set in two. The returned slice has one
// entry per vertex; true places the vertex in the first side. Implementors:
// the GraphPart criteria (Criteria.Bisect) and the METIS-like baseline
// (Metis.Bisect).
type Bisector interface {
	Bisect(g *graph.Graph) []bool
}

// Split materializes the two parts of g induced by side. Following §4.1,
// both parts include the connective edges between the sides (and therefore
// both endpoints of each connective edge), so that the original graph can
// be recovered from the parts.
func Split(g *graph.Graph, side []bool) (*Part, *Part) {
	return buildPart(g, side, true), buildPart(g, side, false)
}

// buildPart collects the vertices with side[v] == want, every edge among
// them, and every connective edge (with its opposite endpoint). A first
// pass numbers the part's vertices and counts their degrees, so the part
// is built at its final size (graph.NewSized).
func buildPart(g *graph.Graph, side []bool, want bool) *Part {
	n := g.VertexCount()
	// keep reports whether edge (v, e.To), v < e.To, belongs to the part:
	// edges inside the side plus connective edges.
	keep := func(v int, e graph.Edge) bool {
		return v < e.To && (side[v] == want || side[e.To] == want)
	}
	// remap[v] is v's vertex in the part (-1: not in it), deg[r] the
	// degree of part vertex r.
	buf := make([]int, 2*n)
	remap, deg := buf[:n], buf[n:]
	for i := range remap {
		remap[i] = -1
	}
	k := 0
	add := func(v int) {
		if remap[v] == -1 {
			remap[v] = k
			k++
		}
	}
	// Own-side vertices first (deterministic order), then cross endpoints
	// as edges force them in.
	for v := 0; v < n; v++ {
		if side[v] == want {
			add(v)
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Adj[v] {
			if keep(v, e) {
				add(v)
				add(e.To)
				deg[remap[v]]++
				deg[remap[e.To]]++
			}
		}
	}
	orig := make([]int, k)
	labels := make([]int, k)
	for v, r := range remap {
		if r >= 0 {
			orig[r], labels[r] = v, g.Labels[v]
		}
	}
	p := &Part{G: graph.NewSized(g.ID, labels, deg[:k]), Orig: orig}
	if g.UFreq != nil && k > 0 {
		p.G.UFreq = make([]float64, k)
		for i, v := range orig {
			p.G.UFreq[i] = g.UFreq[v]
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Adj[v] {
			if keep(v, e) {
				p.G.MustAddEdge(remap[v], remap[e.To], e.Label)
			}
		}
	}
	return p
}

// Recombine reconstructs the graph that was split into a and b. Vertices
// are identified by their original ids; the result's vertex ids are the
// original ids in ascending order (original vertices that ended up in
// neither part — impossible for connected graphs — would be absent).
// Duplicate edges (the connective edges, present in both parts) collapse.
// It returns an error if the parts disagree on a vertex or edge label,
// which would indicate they came from different graphs.
func Recombine(a, b *Part) (*graph.Graph, error) {
	labels := make(map[int]int)
	ufreq := make(map[int]float64)
	collect := func(p *Part) error {
		for pv, ov := range p.Orig {
			if l, ok := labels[ov]; ok && l != p.G.Labels[pv] {
				return fmt.Errorf("partition: vertex %d has conflicting labels %d and %d", ov, l, p.G.Labels[pv])
			}
			labels[ov] = p.G.Labels[pv]
			if p.G.UFreq != nil {
				ufreq[ov] = p.G.UFreq[pv]
			}
		}
		return nil
	}
	if err := collect(a); err != nil {
		return nil, err
	}
	if err := collect(b); err != nil {
		return nil, err
	}
	origIDs := make([]int, 0, len(labels))
	for ov := range labels {
		origIDs = append(origIDs, ov)
	}
	sort.Ints(origIDs)
	remap := make(map[int]int, len(origIDs))
	out := graph.New(a.G.ID)
	for _, ov := range origIDs {
		nv := out.AddVertex(labels[ov])
		if f, ok := ufreq[ov]; ok && f != 0 {
			out.BumpUpdateFreq(nv, f)
		}
		remap[ov] = nv
	}
	addEdges := func(p *Part) error {
		for pv := range p.G.Adj {
			for _, e := range p.G.Adj[pv] {
				if pv > e.To {
					continue
				}
				u, v := remap[p.Orig[pv]], remap[p.Orig[e.To]]
				if l, ok := out.EdgeLabel(u, v); ok {
					if l != e.Label {
						return fmt.Errorf("partition: edge (%d,%d) has conflicting labels %d and %d", p.Orig[pv], p.Orig[e.To], l, e.Label)
					}
					continue
				}
				out.MustAddEdge(u, v, e.Label)
			}
		}
		return nil
	}
	if err := addEdges(a); err != nil {
		return nil, err
	}
	if err := addEdges(b); err != nil {
		return nil, err
	}
	return out, nil
}
