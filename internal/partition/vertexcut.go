package partition

import (
	"sort"

	"partminer/internal/graph"
)

// VertexCut is a PowerGraph-style vertex-cut bisector for power-law
// graphs. Instead of assigning vertices and cutting edges, it assigns
// *edges* to the two sides greedily — preferring a side that already
// holds a replica of an endpoint, tie-breaking toward the lighter side —
// and then derives each vertex's side from the majority of its incident
// edges. High-degree hubs inevitably accumulate edges on both sides, so
// their remaining cross edges become connective edges and Split
// replicates the hub into both parts: exactly the hub replication that
// keeps power-law partitions balanced, because a hub's load is shared
// instead of landing whole in one unit.
//
// The zero value is ready to use and is the registered "vertexcut"
// strategy.
type VertexCut struct{}

// Bisect implements Bisector. It is deterministic: edges are processed
// hub-first (descending endpoint-degree sum, then lexicographic), so the
// heavy vertices spread across both sides before the tail fills in.
func (VertexCut) Bisect(g *graph.Graph) []bool {
	n := g.VertexCount()
	side := make([]bool, n)
	if n == 0 {
		return side
	}
	if n == 1 {
		side[0] = true
		return side
	}

	type edge struct{ u, v int }
	edges := make([]edge, 0, g.EdgeCount())
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u < e.To {
				edges = append(edges, edge{u, e.To})
			}
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		di := g.Degree(edges[i].u) + g.Degree(edges[i].v)
		dj := g.Degree(edges[j].u) + g.Degree(edges[j].v)
		if di != dj {
			return di > dj
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})

	// Greedy edge placement. onA/onB track which sides already hold a
	// replica of each vertex; loadA/loadB the edge counts. edgesOnA[v]
	// counts v's edges placed on side A (for the majority vote below).
	onA := make([]bool, n)
	onB := make([]bool, n)
	edgesOnA := make([]int, n)
	degSeen := make([]int, n)
	loadA, loadB := 0, 0
	// Capacity caps either side at ⌈m/2⌉ edges: replica reuse alone would
	// pile a star's whole edge set onto the hub's first side, and it is
	// exactly when the cap forces a hub's edges across both sides that the
	// hub becomes a replicated (connective) vertex.
	capacity := (len(edges) + 1) / 2
	for _, e := range edges {
		u, v := e.u, e.v
		// PowerGraph's greedy rule: reuse existing replicas when possible,
		// otherwise place on the lighter side.
		var toA bool
		uA, uB, vA, vB := onA[u], onB[u], onA[v], onB[v]
		switch {
		case (uA || vA) && !(uB || vB):
			toA = true
		case (uB || vB) && !(uA || vA):
			toA = false
		case (uA && vA) && !(uB && vB):
			toA = true
		case (uB && vB) && !(uA && vA):
			toA = false
		default:
			toA = loadA <= loadB
		}
		if toA && loadA >= capacity {
			toA = false
		} else if !toA && loadB >= capacity {
			toA = true
		}
		if toA {
			onA[u], onA[v] = true, true
			edgesOnA[u]++
			edgesOnA[v]++
			loadA++
		} else {
			onB[u], onB[v] = true, true
			loadB++
		}
		degSeen[u]++
		degSeen[v]++
	}

	// Vertex side = majority of its edges; isolated vertices alternate to
	// keep the sides balanced. Ties go to side A.
	iso := 0
	for v := 0; v < n; v++ {
		if degSeen[v] == 0 {
			side[v] = iso%2 == 0
			iso++
			continue
		}
		side[v] = 2*edgesOnA[v] >= degSeen[v]
	}
	forceBothSides(side)
	return side
}

// forceBothSides flips one vertex when a bisection left a side empty, so
// DBPartition never recurses on an empty part.
func forceBothSides(side []bool) {
	if len(side) < 2 {
		return
	}
	any, all := false, true
	for _, s := range side {
		if s {
			any = true
		} else {
			all = false
		}
	}
	if !any {
		side[0] = true
	}
	if all {
		side[len(side)-1] = false
	}
}
