package partition

import (
	"sort"

	"partminer/internal/graph"
)

// Community is a community-based bisector in the Louvain/label-propagation
// family: vertices first agglomerate into communities by synchronous-free
// label propagation (each vertex adopts the most common label among its
// neighbors, smallest label winning ties, swept in vertex order — fully
// deterministic), and whole communities are then packed onto the two
// sides, largest first, always onto the lighter side. Because community
// boundaries carry few edges, the resulting bisection keeps dense
// neighborhoods — the places frequent subgraphs live — inside one unit,
// which is what makes the units cheap to mine.
//
// The zero value is ready to use and is the registered "community"
// strategy.
type Community struct {
	// Rounds bounds the label-propagation sweeps; default 8.
	Rounds int
}

func (c Community) rounds() int {
	if c.Rounds <= 0 {
		return 8
	}
	return c.Rounds
}

// Bisect implements Bisector.
func (c Community) Bisect(g *graph.Graph) []bool {
	n := g.VertexCount()
	side := make([]bool, n)
	if n == 0 {
		return side
	}
	if n == 1 {
		side[0] = true
		return side
	}

	// Label propagation: labels start as vertex ids; each sweep updates
	// in place (asynchronous), so labels flow through the graph within a
	// round and convergence is quick.
	label := make([]int, n)
	for v := range label {
		label[v] = v
	}
	counts := make(map[int]int)
	for round := 0; round < c.rounds(); round++ {
		changed := false
		for v := 0; v < n; v++ {
			if len(g.Adj[v]) == 0 {
				continue
			}
			for k := range counts {
				delete(counts, k)
			}
			for _, e := range g.Adj[v] {
				counts[label[e.To]]++
			}
			best, bestN := label[v], 0
			for l, cnt := range counts {
				if cnt > bestN || (cnt == bestN && l < best) {
					best, bestN = l, cnt
				}
			}
			if best != label[v] {
				label[v] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Group into communities and pack them: largest community first, each
	// onto the currently lighter side, so the two sides stay balanced
	// without splitting any community unnecessarily.
	members := make(map[int][]int)
	for v, l := range label {
		members[l] = append(members[l], v)
	}
	comms := make([][]int, 0, len(members))
	for _, m := range members {
		comms = append(comms, m)
	}
	sort.Slice(comms, func(i, j int) bool {
		if len(comms[i]) != len(comms[j]) {
			return len(comms[i]) > len(comms[j])
		}
		return comms[i][0] < comms[j][0]
	})
	sizeA, sizeB := 0, 0
	for _, comm := range comms {
		if sizeA <= sizeB {
			for _, v := range comm {
				side[v] = true
			}
			sizeA += len(comm)
		} else {
			sizeB += len(comm)
		}
	}
	// A dominant community (more than 3/4 of the graph) defeats packing;
	// grow a balanced region instead of publishing a lopsided bisection.
	if 4*minInt(sizeA, sizeB) < n {
		return BFSExpansion{}.Bisect(g)
	}
	forceBothSides(side)
	return side
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
