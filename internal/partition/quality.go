package partition

// Quality reports how well a partition tree divided the database — the
// three standard partitioning figures of merit. Strategy choice never
// changes the mined pattern set (the merge-join re-derives exactness from
// the database), so quality is the entire observable difference between
// strategies: a low edge-cut ratio means less duplicated merge work, a
// low replication factor means smaller units, and a balance near 1 means
// no straggler unit serializes a parallel run.
type Quality struct {
	// Strategy is the registered name of the bisector that produced the
	// tree, when it is a registered strategy ("" for custom bisectors).
	Strategy string `json:"strategy,omitempty"`
	// K is the number of units.
	K int `json:"k"`
	// TotalEdges counts the undirected edges of the root database;
	// TotalVertices its vertices.
	TotalEdges    int `json:"total_edges"`
	TotalVertices int `json:"total_vertices"`
	// CutEdges counts connective edges summed over every split in the
	// tree. An edge cut at several levels counts once per level, so on
	// deep trees EdgeCutRatio = CutEdges/TotalEdges can exceed 1.
	CutEdges     int     `json:"cut_edges"`
	EdgeCutRatio float64 `json:"edge_cut_ratio"`
	// ReplicationFactor is the vertex-cut metric: unit vertices summed
	// over all units divided by the root's vertices (>= 1; connective
	// edges replicate their endpoints into both parts).
	ReplicationFactor float64 `json:"replication_factor"`
	// Balance is max unit edge count over mean unit edge count (1 =
	// perfectly balanced; 2 = the largest unit is twice the average and
	// will straggle a parallel mine).
	Balance float64 `json:"unit_balance"`
	// UnitEdges lists each unit database's edge count, in unit order —
	// the static size skew the scheduler's cost profile refines.
	UnitEdges []int `json:"unit_edges,omitempty"`
}

// measureQuality walks a finished tree. Split keeps each connective edge
// (with both endpoints) in both parts, so per split and per graph the
// duplication is directly countable: cut = E(left)+E(right)-E(parent) and
// replicas = V(left)+V(right)-V(parent).
func measureQuality(t *Tree, b Bisector) Quality {
	q := Quality{K: t.K}
	if name, ok := NameOf(b); ok {
		q.Strategy = name
	}
	for _, g := range t.Root.DB {
		q.TotalEdges += g.EdgeCount()
		q.TotalVertices += g.VertexCount()
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for i, g := range n.DB {
			q.CutEdges += n.Left.DB[i].EdgeCount() + n.Right.DB[i].EdgeCount() - g.EdgeCount()
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)

	unitVertices := 0
	maxEdges, sumEdges := 0, 0
	for _, unit := range t.Units {
		edges := 0
		for _, g := range unit {
			edges += g.EdgeCount()
			unitVertices += g.VertexCount()
		}
		q.UnitEdges = append(q.UnitEdges, edges)
		sumEdges += edges
		if edges > maxEdges {
			maxEdges = edges
		}
	}
	if q.TotalEdges > 0 {
		q.EdgeCutRatio = float64(q.CutEdges) / float64(q.TotalEdges)
	}
	if q.TotalVertices > 0 {
		q.ReplicationFactor = float64(unitVertices) / float64(q.TotalVertices)
	}
	if sumEdges > 0 && len(t.Units) > 0 {
		mean := float64(sumEdges) / float64(len(t.Units))
		q.Balance = float64(maxEdges) / mean
	}
	return q
}
