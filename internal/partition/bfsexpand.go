package partition

import "partminer/internal/graph"

// BFSExpansion bisects by breadth-first region growing: a frontier
// expands outward from the highest-degree vertex until it holds half the
// vertices, and that region becomes side one. BFS layers are contiguous
// neighborhoods, so the cut falls along a sphere of the graph's metric —
// cheap to compute (one traversal, no weight function) and a strong
// baseline on graphs whose structure is locally clustered but has no hub
// skew for VertexCut or community signal for Community to exploit.
//
// The zero value is ready to use and is the registered "bfs" strategy.
type BFSExpansion struct{}

// Bisect implements Bisector. Deterministic: the seed is the
// highest-degree vertex (lowest id on ties), the queue is FIFO in
// adjacency order, and exhausted components re-seed from the next
// highest-degree unvisited vertex.
func (BFSExpansion) Bisect(g *graph.Graph) []bool {
	n := g.VertexCount()
	side := make([]bool, n)
	if n == 0 {
		return side
	}
	if n == 1 {
		side[0] = true
		return side
	}
	want := n / 2
	if want == 0 {
		want = 1
	}
	seed := func() int {
		best := -1
		for v := 0; v < n; v++ {
			if side[v] {
				continue
			}
			if best == -1 || g.Degree(v) > g.Degree(best) {
				best = v
			}
		}
		return best
	}
	taken := 0
	queue := make([]int, 0, n)
	for taken < want {
		s := seed()
		if s == -1 {
			break
		}
		side[s] = true
		taken++
		queue = append(queue[:0], s)
		for len(queue) > 0 && taken < want {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.Adj[v] {
				if side[e.To] || taken >= want {
					continue
				}
				side[e.To] = true
				taken++
				queue = append(queue, e.To)
			}
		}
	}
	forceBothSides(side)
	return side
}
