// Package graph provides the labeled, undirected graph model that every
// other package in this repository builds on: adjacency-list graphs with
// integer vertex and edge labels, per-vertex update frequencies (used by the
// partitioner), graph databases, and a compact text serialization.
//
// Vertices are dense integers 0..N-1. Edges are undirected and stored in
// both endpoints' adjacency lists; parallel edges are not allowed but
// self-loops are rejected at insertion. Labels are small non-negative
// integers; callers that have string labels should intern them first.
package graph

import (
	"fmt"
	"sort"
)

// Edge is one directed half of an undirected edge as seen from a vertex's
// adjacency list.
type Edge struct {
	To    int // neighbor vertex id
	Label int // edge label
}

// Graph is an undirected labeled graph.
//
// The zero value is an empty graph ready for AddVertex/AddEdge.
type Graph struct {
	// ID identifies the graph inside a Database. It is carried through
	// partitioning so that subgraphs of the same original graph can be
	// recombined.
	ID int

	// Labels[v] is the label of vertex v.
	Labels []int

	// Adj[v] lists the edges incident to v, in insertion order.
	Adj [][]Edge

	// UFreq[v] is the update frequency of vertex v, maintained by callers
	// (the data generator and the incremental miner). It is nil when no
	// update statistics exist; the partitioner treats nil as all-zero.
	UFreq []float64

	edges int

	// sortedAdj records that every adjacency list is sorted by neighbor
	// id (the invariant SortAdjacency establishes), which lets EdgeLabel
	// and HasEdge binary-search. AddEdge invalidates it; RemoveEdge and
	// SetEdgeLabel preserve relative order and keep it.
	sortedAdj bool
}

// New returns an empty graph with the given id.
func New(id int) *Graph {
	return &Graph{ID: id}
}

// NewSized returns an edgeless graph with the given vertex labels (kept,
// not copied) whose adjacency lists are carved from one backing array:
// vertex v's list has room for deg[v] edges, so AddEdge fills it without
// allocating. Each list is capacity-limited, so an append past deg[v]
// reallocates that list alone instead of overwriting its neighbour's.
// deg is only read; len(deg) must equal len(labels).
func NewSized(id int, labels, deg []int) *Graph {
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]Edge, total)
	adj := make([][]Edge, len(labels))
	off := 0
	for v, d := range deg {
		adj[v] = backing[off : off : off+d]
		off += d
	}
	return &Graph{ID: id, Labels: labels, Adj: adj}
}

// AddVertex appends a vertex with the given label and returns its id.
func (g *Graph) AddVertex(label int) int {
	g.Labels = append(g.Labels, label)
	if n := len(g.Adj); n < cap(g.Adj) {
		// Clone parks an empty carved list past the end for the next
		// vertex; anywhere else the slot is nil.
		g.Adj = g.Adj[:n+1]
		g.Adj[n] = g.Adj[n][:0]
	} else {
		g.Adj = append(g.Adj, nil)
	}
	if g.UFreq != nil {
		g.UFreq = append(g.UFreq, 0)
	}
	return len(g.Labels) - 1
}

// AddEdge inserts an undirected edge (u, v) with the given label.
// It reports an error for out-of-range endpoints, self-loops, and
// duplicate edges.
func (g *Graph) AddEdge(u, v, label int) error {
	if u < 0 || u >= len(g.Labels) || v < 0 || v >= len(g.Labels) {
		return fmt.Errorf("graph %d: edge (%d,%d) endpoint out of range [0,%d)", g.ID, u, v, len(g.Labels))
	}
	if u == v {
		return fmt.Errorf("graph %d: self-loop on vertex %d", g.ID, u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph %d: duplicate edge (%d,%d)", g.ID, u, v)
	}
	g.Adj[u] = append(g.Adj[u], Edge{To: v, Label: label})
	g.Adj[v] = append(g.Adj[v], Edge{To: u, Label: label})
	g.edges++
	g.sortedAdj = false // the appended entries may break neighbor-id order
	return nil
}

// MustAddEdge is AddEdge for construction code where the endpoints are known
// valid; it panics on error.
func (g *Graph) MustAddEdge(u, v, label int) {
	if err := g.AddEdge(u, v, label); err != nil {
		panic(err)
	}
}

// VertexCount returns the number of vertices.
func (g *Graph) VertexCount() int { return len(g.Labels) }

// EdgeCount returns the number of undirected edges. This is the "size" of
// the graph in the paper's terminology.
func (g *Graph) EdgeCount() int { return g.edges }

// linearScanMax is the adjacency-list length below which EdgeLabel scans
// linearly even on sorted lists; binary search only pays off past it.
const linearScanMax = 8

// HasEdge reports whether an undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeLabel(u, v)
	return ok
}

// EdgeLabel returns the label of edge (u, v) and whether the edge exists.
// After SortAdjacency it runs in O(log d) on high-degree vertices via
// binary search on neighbor ids; otherwise (or on short lists) it falls
// back to a linear scan.
func (g *Graph) EdgeLabel(u, v int) (int, bool) {
	if u < 0 || u >= len(g.Adj) {
		return 0, false
	}
	adj := g.Adj[u]
	if g.sortedAdj && len(adj) > linearScanMax {
		lo, hi := 0, len(adj)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if adj[mid].To < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(adj) && adj[lo].To == v {
			return adj[lo].Label, true
		}
		return 0, false
	}
	for _, e := range adj {
		if e.To == v {
			return e.Label, true
		}
	}
	return 0, false
}

// SetEdgeLabel relabels the existing edge (u, v). It reports whether the
// edge existed.
func (g *Graph) SetEdgeLabel(u, v, label int) bool {
	found := false
	for i := range g.Adj[u] {
		if g.Adj[u][i].To == v {
			g.Adj[u][i].Label = label
			found = true
		}
	}
	if !found {
		return false
	}
	for i := range g.Adj[v] {
		if g.Adj[v][i].To == u {
			g.Adj[v][i].Label = label
		}
	}
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and reports whether it
// existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || u >= len(g.Adj) || v < 0 || v >= len(g.Adj) {
		return false
	}
	found := false
	filter := func(adj []Edge, drop int) []Edge {
		out := adj[:0]
		for _, e := range adj {
			if e.To == drop {
				found = true
				continue
			}
			out = append(out, e)
		}
		return out
	}
	g.Adj[u] = filter(g.Adj[u], v)
	if !found {
		return false
	}
	g.Adj[v] = filter(g.Adj[v], u)
	g.edges--
	return true
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// UpdateFreq returns the update frequency of vertex v, treating a nil
// UFreq slice as all-zero.
func (g *Graph) UpdateFreq(v int) float64 {
	if g.UFreq == nil {
		return 0
	}
	return g.UFreq[v]
}

// BumpUpdateFreq increments vertex v's update frequency by delta,
// allocating the UFreq slice on first use.
func (g *Graph) BumpUpdateFreq(v int, delta float64) {
	if g.UFreq == nil {
		g.UFreq = make([]float64, len(g.Labels))
	}
	g.UFreq[v] += delta
}

// Clone returns a deep copy of g with room to grow by one edge at every
// vertex and by one more vertex (with one edge) without allocating: the
// adjacency lists are carved from one backing array, each
// capacity-limited one past its length, and an empty list for the next
// AddVertex is parked past the end of Adj.
func (g *Graph) Clone() *Graph {
	n := len(g.Labels)
	total := n + 1
	for _, adj := range g.Adj {
		total += len(adj)
	}
	backing := make([]Edge, total)
	c := &Graph{
		ID:        g.ID,
		Labels:    append(make([]int, 0, n+1), g.Labels...),
		Adj:       make([][]Edge, n+1),
		edges:     g.edges,
		sortedAdj: g.sortedAdj,
	}
	off := 0
	for v, adj := range g.Adj {
		d := copy(backing[off:], adj)
		c.Adj[v] = backing[off : off+d : off+d+1]
		off += d + 1
	}
	c.Adj[n] = backing[off : off : off+1]
	c.Adj = c.Adj[:n]
	if g.UFreq != nil {
		c.UFreq = append(make([]float64, 0, n+1), g.UFreq...)
	}
	return c
}

// Equal reports exact structural equality: same vertex count, identical
// labels per vertex id, and identical edge sets with labels. It is an
// identity check (vertex ids matter), not an isomorphism test.
func (g *Graph) Equal(o *Graph) bool {
	if g.VertexCount() != o.VertexCount() || g.EdgeCount() != o.EdgeCount() {
		return false
	}
	for v, l := range g.Labels {
		if o.Labels[v] != l {
			return false
		}
	}
	for v, adj := range g.Adj {
		for _, e := range adj {
			if l, ok := o.EdgeLabel(v, e.To); !ok || l != e.Label {
				return false
			}
		}
	}
	return true
}

// Fingerprint digests what Equal compares — the labels per vertex id
// and the labeled edge set, in any adjacency order — into 64 bits:
// Equal graphs have equal fingerprints, and unequal ones collide only by
// accident. The incremental miner records one per graph to notice
// graphs changed in place. It reads each label and adjacency entry once
// and allocates nothing: every vertex and every edge end adds one term,
// the label or the edge's far end and label XORed into a per-vertex
// pseudo-random word, so the sum ignores adjacency order.
func (g *Graph) Fingerprint() uint64 {
	var h uint64
	for v, adj := range g.Adj {
		x := uint64(v+1) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		h += x ^ uint64(g.Labels[v])*0xbf58476d1ce4e5b9
		for _, e := range adj {
			h += x ^ uint64(e.To+1)*0x94d049bb133111eb ^ uint64(e.Label)*0xd6e8feb86659fd93
		}
	}
	return mix64(h ^ uint64(len(g.Labels))<<32 ^ uint64(g.edges))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Connected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) Connected() bool {
	n := len(g.Labels)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Components returns the connected components as slices of vertex ids,
// each sorted ascending, ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	n := len(g.Labels)
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, e := range g.Adj[v] {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by keeping the given
// vertices (and every edge whose both endpoints are kept). The second
// return value maps old vertex ids to new ones (-1 for dropped vertices).
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	remap := make([]int, len(g.Labels))
	for i := range remap {
		remap[i] = -1
	}
	sub := New(g.ID)
	for _, v := range keep {
		if remap[v] != -1 {
			continue
		}
		remap[v] = sub.AddVertex(g.Labels[v])
		if g.UFreq != nil {
			sub.BumpUpdateFreq(remap[v], g.UFreq[v])
		}
	}
	for _, v := range keep {
		for _, e := range g.Adj[v] {
			if remap[e.To] != -1 && v < e.To {
				sub.MustAddEdge(remap[v], remap[e.To], e.Label)
			}
		}
	}
	return sub, remap
}

// SortAdjacency orders every adjacency list by neighbor id — a total,
// deterministic order, because parallel edges are rejected at insertion.
// It establishes the sorted-adjacency invariant that lets EdgeLabel and
// HasEdge binary-search high-degree lists; the invariant survives
// RemoveEdge and SetEdgeLabel but is invalidated by AddEdge (re-sort to
// restore it). Callers that own their graphs (decoders, generators) can
// call this once after construction.
func (g *Graph) SortAdjacency() {
	for v := range g.Adj {
		adj := g.Adj[v]
		sort.Slice(adj, func(i, j int) bool { return adj[i].To < adj[j].To })
	}
	g.sortedAdj = true
}

// AdjacencySorted reports whether the sorted-adjacency invariant is
// currently established.
func (g *Graph) AdjacencySorted() bool { return g.sortedAdj }

// String renders the graph in the same textual form Parse accepts.
func (g *Graph) String() string {
	return Format(g)
}

// Database is an ordered collection of graphs; the index of a graph in the
// slice is its transaction id (TID) for support counting.
type Database []*Graph

// Clone deep-copies the database.
func (db Database) Clone() Database {
	out := make(Database, len(db))
	for i, g := range db {
		out[i] = g.Clone()
	}
	return out
}

// MaxLabel returns the largest vertex or edge label in the database, or -1
// for an empty database. Miners use it to size label-indexed tables.
func (db Database) MaxLabel() int {
	max := -1
	for _, g := range db {
		for _, l := range g.Labels {
			if l > max {
				max = l
			}
		}
		for _, adj := range g.Adj {
			for _, e := range adj {
				if e.Label > max {
					max = e.Label
				}
			}
		}
	}
	return max
}

// TotalEdges returns the number of undirected edges across the database.
func (db Database) TotalEdges() int {
	n := 0
	for _, g := range db {
		n += g.EdgeCount()
	}
	return n
}
