package partition

import (
	"fmt"
	"math/bits"

	"partminer/internal/graph"
)

// Node is one database in the partition tree. Internal nodes hold the
// database that was split into their children; leaves are the units that
// get mined directly. Databases at every level are index-aligned: child
// database entry i is a part of parent entry i, so transaction ids are
// stable across the whole tree.
type Node struct {
	DB          graph.Database
	Left, Right *Node
	// UnitIndex is the unit number for leaves, -1 for internal nodes.
	UnitIndex int
	// Level is the node's depth; the root is level 0. PartMiner mines
	// leaves at support sup/k and checks merged results at sup/2^Level
	// (Fig. 11).
	Level int
}

// IsLeaf reports whether the node is a unit.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is the result of DBPartition (Fig. 6): a binary splitting of the
// database into exactly K unit databases.
type Tree struct {
	Root  *Node
	K     int
	Units []graph.Database // the leaf databases, left to right
	// Quality reports the tree's partition quality (edge-cut ratio,
	// replication factor, unit balance), measured once by DBPartition.
	Quality Quality
}

// DBPartition divides db into k units by repeated bi-partitioning with the
// given bisector, following Fig. 6: ⌊log₂k⌋ full levels of splits, then one
// extra split for the leftmost k−2^⌊log₂k⌋ leaves. k=1 yields a single-unit
// tree (plain in-memory mining).
func DBPartition(db graph.Database, k int, b Bisector) (*Tree, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	root := &Node{DB: db, UnitIndex: -1, Level: 0}
	level := []*Node{root}
	l := 0
	if k > 1 {
		l = bits.Len(uint(k)) - 1 // ⌊log₂ k⌋
	}
	for i := 1; i <= l; i++ {
		var next []*Node
		for _, n := range level {
			left, right := splitDB(n, b)
			next = append(next, left, right)
		}
		level = next
	}
	// One extra split for the first k - 2^l nodes.
	extra := k - (1 << uint(l))
	var leaves []*Node
	for j, n := range level {
		if j < extra {
			left, right := splitDB(n, b)
			leaves = append(leaves, left, right)
		} else {
			leaves = append(leaves, n)
		}
	}
	t := &Tree{Root: root, K: k}
	for i, leaf := range leaves {
		leaf.UnitIndex = i
		t.Units = append(t.Units, leaf.DB)
	}
	t.Quality = measureQuality(t, b)
	return t, nil
}

// splitDB bisects every graph of the node's database (Fig. 6,
// DivideDBPart) and attaches the two child nodes.
func splitDB(n *Node, b Bisector) (*Node, *Node) {
	d0 := make(graph.Database, len(n.DB))
	d1 := make(graph.Database, len(n.DB))
	for i, g := range n.DB {
		p0, p1 := GraphPart2(g, b)
		d0[i], d1[i] = p0.G, p1.G
	}
	n.Left = &Node{DB: d0, UnitIndex: -1, Level: n.Level + 1}
	n.Right = &Node{DB: d1, UnitIndex: -1, Level: n.Level + 1}
	return n.Left, n.Right
}

// GraphPart2 bisects g with an arbitrary bisector and returns the two
// parts including connective edges. GraphPart (criteria-based) is the
// paper's instantiation; the METIS baseline uses this entry point.
func GraphPart2(g *graph.Graph, b Bisector) (*Part, *Part) {
	return Split(g, b.Bisect(g))
}

// Leaves returns the leaf nodes of the tree, left to right.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// Rebuild returns the partition tree of db given the tree prev of a
// database that differs from db only at the updated tids: at every node
// the unchanged graphs' pieces are shared with prev by pointer and only
// the updated graphs are bisected again. Bisection is deterministic per
// graph, so the result equals DBPartition(db, prev.K, b) piece for piece
// at a cost proportional to the update; prev is not modified. b must be
// the bisector prev was built with.
func Rebuild(prev *Tree, db graph.Database, updated []int, b Bisector) (*Tree, error) {
	if len(db) != len(prev.Root.DB) {
		return nil, fmt.Errorf("partition: rebuild over %d graphs; previous tree has %d", len(db), len(prev.Root.DB))
	}
	for _, tid := range updated {
		if tid < 0 || tid >= len(db) {
			return nil, fmt.Errorf("partition: updated tid %d out of range [0,%d)", tid, len(db))
		}
	}
	t := &Tree{K: prev.K}
	var walk func(old *Node, db graph.Database) *Node
	walk = func(old *Node, db graph.Database) *Node {
		n := &Node{DB: db, UnitIndex: old.UnitIndex, Level: old.Level}
		if old.IsLeaf() {
			t.Units = append(t.Units, db)
			return n
		}
		d0 := append(graph.Database(nil), old.Left.DB...)
		d1 := append(graph.Database(nil), old.Right.DB...)
		for _, tid := range updated {
			p0, p1 := GraphPart2(db[tid], b)
			d0[tid], d1[tid] = p0.G, p1.G
		}
		n.Left, n.Right = walk(old.Left, d0), walk(old.Right, d1)
		return n
	}
	t.Root = walk(prev.Root, db)
	t.Quality = measureQuality(t, b)
	return t, nil
}
