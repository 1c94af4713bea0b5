package partition

import (
	"cmp"
	"math"
	"slices"

	"partminer/internal/graph"
)

// Criteria is the GraphPart weight function of §4.1, equation (1):
//
//	w(V1) = λ1 · (Σ_{v∈V1} v.ufreq)/|V1| − λ2 · |E(V1,V2)|
//
// λ1 weights the isolation of frequently updated vertices; λ2 weights the
// connectivity (number of connective edges) between the two sides. The
// paper's three configurations are provided as Partition1/2/3.
type Criteria struct {
	Lambda1 float64
	Lambda2 float64
}

// The partitioning criteria evaluated in §5.1.1.
var (
	// Partition1 isolates the updated vertices (λ1=1, λ2=0).
	Partition1 = Criteria{Lambda1: 1, Lambda2: 0}
	// Partition2 minimizes connectivity between the subgraphs (λ1=0, λ2=1).
	Partition2 = Criteria{Lambda1: 0, Lambda2: 1}
	// Partition3 does both (λ1=1, λ2=1).
	Partition3 = Criteria{Lambda1: 1, Lambda2: 1}
)

// Weight evaluates w(V1) for the vertex subset marked true in side.
func (c Criteria) Weight(g *graph.Graph, side []bool) float64 {
	size := 0
	sum := 0.0
	for v, in := range side {
		if in {
			size++
			sum += g.UpdateFreq(v)
		}
	}
	if size == 0 {
		return math.Inf(-1)
	}
	return c.Lambda1*sum/float64(size) - c.Lambda2*float64(cutSize(g, side))
}

// Bisect implements the GraphPart algorithm (Fig. 5). Vertices are sorted
// by descending update frequency; each vertex of the high-frequency half
// seeds a depth-first scan that greedily visits the highest-frequency
// unvisited neighbor until half the vertices are collected; the scan whose
// vertex set maximizes the weight function wins.
//
// Graphs with fewer than two vertices place everything on side one.
func (c Criteria) Bisect(g *graph.Graph) []bool {
	n := g.VertexCount()
	side := make([]bool, n)
	if n == 0 {
		return side
	}
	if n == 1 {
		side[0] = true
		return side
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(g.UpdateFreq(b), g.UpdateFreq(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	half := n / 2
	if half == 0 {
		half = 1
	}
	seeds := (n + 1) / 2 // the high-frequency half of the sorted order
	bestW := math.Inf(-1)
	scratch := make([]bool, n)
	stack := make([]int, 0, half)
	for s := 0; s < seeds; s++ {
		clear(scratch)
		stack = dfsScan(g, order[s], half, scratch, stack)
		if w := c.Weight(g, scratch); w > bestW {
			bestW = w
			copy(side, scratch)
		}
	}
	return side
}

// cutSize counts the edges crossing the bisection side.
func cutSize(g *graph.Graph, side []bool) int {
	cut := 0
	for v, adj := range g.Adj {
		for _, e := range adj {
			if v < e.To && side[v] != side[e.To] {
				cut++
			}
		}
	}
	return cut
}

// dfsScan marks up to limit vertices reachable from start, depth first,
// preferring the unvisited neighbor with the highest update frequency
// (Fig. 5, Procedure DFSScan line 21). stack is scratch, returned for
// the next scan to reuse.
func dfsScan(g *graph.Graph, start, limit int, visited []bool, stack []int) []int {
	stack = append(stack[:0], start)
	visited[start] = true
	taken := 1
	for len(stack) > 0 && taken < limit {
		v := stack[len(stack)-1]
		// Highest-frequency unvisited neighbor of v.
		best := -1
		for _, e := range g.Adj[v] {
			if visited[e.To] {
				continue
			}
			if best == -1 || g.UpdateFreq(e.To) > g.UpdateFreq(best) {
				best = e.To
			}
		}
		if best == -1 {
			stack = stack[:len(stack)-1]
			continue
		}
		visited[best] = true
		taken++
		stack = append(stack, best)
	}
	return stack
}

// GraphPart bisects g under the criteria and returns the two parts, each
// including the connective edges (Fig. 5 lines 13–14).
func GraphPart(g *graph.Graph, c Criteria) (*Part, *Part) {
	side := c.Bisect(g)
	return Split(g, side)
}
