// Package dfscode implements gSpan-style DFS codes and the minimum DFS
// code canonical form for labeled undirected graphs (Yan & Han, ICDM'02),
// which the paper adopts in §3 to encode graphs: two graphs are isomorphic
// iff their minimum DFS codes are identical.
//
// A DFS code is a sequence of edge codes (i, j, Li, Le, Lj) where i and j
// are DFS discovery indices. A forward edge has i < j (it discovers vertex
// j); a backward edge has i > j (it closes a cycle back to an already
// discovered vertex). The minimum DFS code of a graph is the
// lexicographically smallest code over all DFS traversals, under the gSpan
// edge order implemented by Less.
package dfscode

import (
	"fmt"
	"strconv"

	"partminer/internal/graph"
)

// EdgeCode is one entry of a DFS code.
type EdgeCode struct {
	I, J int // DFS discovery indices of the endpoints
	LI   int // label of vertex I
	LE   int // label of the edge
	LJ   int // label of vertex J
}

// Forward reports whether the edge discovers a new vertex.
func (e EdgeCode) Forward() bool { return e.I < e.J }

// Less implements the gSpan total order on edge codes. It first applies
// the structural order (forward/backward positions), then breaks ties on
// the label triple (LI, LE, LJ).
func Less(a, b EdgeCode) bool {
	af, bf := a.Forward(), b.Forward()
	switch {
	case af && bf:
		if a.J != b.J {
			return a.J < b.J
		}
		if a.I != b.I {
			return a.I > b.I
		}
	case !af && !bf:
		if a.I != b.I {
			return a.I < b.I
		}
		if a.J != b.J {
			return a.J < b.J
		}
	case !af && bf: // backward vs forward
		return a.I < b.J
	default: // forward vs backward
		return a.J <= b.I
	}
	// Same structural position: compare labels.
	if a.LI != b.LI {
		return a.LI < b.LI
	}
	if a.LE != b.LE {
		return a.LE < b.LE
	}
	return a.LJ < b.LJ
}

// Code is a DFS code: a sequence of edge codes in traversal order.
type Code []EdgeCode

// Compare orders codes lexicographically by the gSpan edge order, with a
// proper prefix ordering before its extensions. It returns -1, 0, or +1.
func (c Code) Compare(o Code) int {
	n := len(c)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c[i] != o[i] {
			if Less(c[i], o[i]) {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(c) < len(o):
		return -1
	case len(c) > len(o):
		return 1
	}
	return 0
}

// Equal reports whether two codes are identical.
func (c Code) Equal(o Code) bool { return c.Compare(o) == 0 }

// Key returns a compact string usable as a map key. Codes of isomorphic
// graphs have equal keys iff both are minimum codes.
func (c Code) Key() string {
	b := make([]byte, 0, len(c)*12)
	for _, e := range c {
		b = strconv.AppendInt(b, int64(e.I), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.J), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.LI), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.LE), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.LJ), 10)
		b = append(b, ';')
	}
	return string(b)
}

// String renders the code in the paper's Figure 1 notation,
// "(v0,v1,2,0,3) (v1,v2,…)".
func (c Code) String() string {
	b := make([]byte, 0, len(c)*16)
	for i, e := range c {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "(v"...)
		b = strconv.AppendInt(b, int64(e.I), 10)
		b = append(b, ",v"...)
		b = strconv.AppendInt(b, int64(e.J), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.LI), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.LE), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.LJ), 10)
		b = append(b, ')')
	}
	return string(b)
}

// VertexCount returns the number of vertices the code spans.
func (c Code) VertexCount() int {
	max := -1
	for _, e := range c {
		if e.I > max {
			max = e.I
		}
		if e.J > max {
			max = e.J
		}
	}
	return max + 1
}

// Clone returns a copy of the code.
func (c Code) Clone() Code { return append(Code(nil), c...) }

// Graph materializes the pattern graph encoded by c, built at its final
// size (graph.NewSized). The graph id is 0. It panics if the code is
// structurally invalid (an edge referencing an undiscovered vertex);
// codes produced by MinCode or by rightmost-path extension are always
// valid.
func (c Code) Graph() *graph.Graph {
	n := 0
	for idx, e := range c {
		switch {
		case e.Forward():
			if e.I >= n {
				if idx != 0 || e.I != 0 {
					panic(fmt.Sprintf("dfscode: edge %d (%d,%d) references undiscovered source", idx, e.I, e.J))
				}
				n++
			}
			if e.J != n {
				panic(fmt.Sprintf("dfscode: forward edge %d (%d,%d) does not discover next vertex %d", idx, e.I, e.J, n))
			}
			n++
		case e.I >= n || e.J >= n:
			panic(fmt.Sprintf("dfscode: backward edge %d (%d,%d) references undiscovered vertex", idx, e.I, e.J))
		}
	}
	// Vertex labels come from the discovering edges, as a DFS reads them.
	var small [16]int
	deg := small[:]
	if n > len(small) {
		deg = make([]int, n)
	}
	labels := make([]int, n)
	for idx, e := range c {
		if idx == 0 {
			labels[0] = e.LI
		}
		if e.Forward() {
			labels[e.J] = e.LJ
		}
		deg[e.I]++
		deg[e.J]++
	}
	g := graph.NewSized(0, labels, deg[:n])
	for _, e := range c {
		g.MustAddEdge(e.I, e.J, e.LE)
	}
	return g
}

// RightmostPath returns the DFS indices on the rightmost path of the code,
// from the root (index 0) to the rightmost vertex, using the forward tree
// edges. It returns nil for an empty code.
func (c Code) RightmostPath() []int {
	if len(c) == 0 {
		return nil
	}
	// The rightmost vertex is the largest discovered index; walk the
	// forward edges backwards to find the chain to the root.
	rightmost := c.VertexCount() - 1
	path := []int{rightmost}
	child := rightmost
	for i := len(c) - 1; i >= 0; i-- {
		e := c[i]
		if e.Forward() && e.J == child {
			path = append(path, e.I)
			child = e.I
			if child == 0 {
				break
			}
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// VertexLabel returns the label of DFS index v as recorded by the code,
// and whether v is discovered by the code.
func (c Code) VertexLabel(v int) (int, bool) {
	for _, e := range c {
		if e.Forward() {
			if e.I == v {
				return e.LI, true
			}
			if e.J == v {
				return e.LJ, true
			}
		}
	}
	return 0, false
}

// HasEdge reports whether the code already contains an edge between DFS
// indices a and b (in either orientation).
func (c Code) HasEdge(a, b int) bool {
	for _, e := range c {
		if (e.I == a && e.J == b) || (e.I == b && e.J == a) {
			return true
		}
	}
	return false
}
