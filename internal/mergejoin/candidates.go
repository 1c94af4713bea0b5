package mergejoin

import (
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// SubKeys memoizes the canonical keys of a pattern's one-edge-removed
// connected subpatterns. The mapping is a pure function of the pattern and
// dominates candidate-check cost (building the removal graphs and
// canonicalizing them), and the same patterns recur at every node of the
// partition tree, so one mining run shares one memo across its merges
// (Config.SubKeys).
type SubKeys = exec.Cache[[]string]

// maxSubKeyEntries bounds a memo.
const maxSubKeyEntries = 1 << 20

// NewSubKeys returns an empty memo.
func NewSubKeys() *SubKeys { return exec.NewCache[[]string](maxSubKeyEntries) }

// tripleIndex indexes the frequent 1-edge label triples of a pattern set:
// connect[(la,lb)] lists frequent la—lb edges (la <= lb normalized) with
// their supporting TIDs, and pendant[la] lists the extensions reachable
// from a vertex labeled la. The TID sets drive the cheap candidate
// pre-filter: a candidate built from pattern q and triple t can only be
// frequent on q.TIDs ∩ t.TIDs.
type tripleIndex struct {
	connect map[[2]int][]tripleExt
	pendant map[int][]tripleExt
}

// tripleExt is one frequent 1-edge extension option.
type tripleExt struct {
	le    int // edge label
	other int // other-endpoint vertex label (pendant only)
	tids  *pattern.TIDSet
}

// edgeTriples builds the index from edges, a merge's frequent 1-edge
// patterns.
func edgeTriples(edges pattern.Set) tripleIndex {
	ti := tripleIndex{
		connect: make(map[[2]int][]tripleExt),
		pendant: make(map[int][]tripleExt),
	}
	for _, p := range edges {
		e := p.Code[0]
		li, le, lj := e.LI, e.LE, e.LJ
		if li > lj {
			li, lj = lj, li
		}
		ti.connect[[2]int{li, lj}] = append(ti.connect[[2]int{li, lj}], tripleExt{le: le, tids: p.TIDs})
		ti.pendant[li] = append(ti.pendant[li], tripleExt{le: le, other: lj, tids: p.TIDs})
		if li != lj {
			ti.pendant[lj] = append(ti.pendant[lj], tripleExt{le: le, other: li, tids: p.TIDs})
		}
	}
	return ti
}

// extCandidate is one extension: the grown graph, the endpoints of the
// edge that was added (in the grown graph's vertex numbering), and the
// supporting transactions of the added edge's label triple.
type extCandidate struct {
	g    *graph.Graph
	u, v int
	tids *pattern.TIDSet
}

// extensions returns every graph obtained from g by adding one edge whose
// label triple is frequent and whose TID upper bound (the supporting
// transactions of q intersected with the triple's) reaches minSup: either
// an edge between two existing non-adjacent vertices or a pendant edge to
// a new vertex. qTIDs may be nil to disable the pre-filter.
//
// In incremental mode qUpdated is q's supporters among the updated
// transactions: a pattern that was infrequent before the update can only
// have become frequent if it occurs in an updated graph, so extensions
// whose upper bound misses every updated transaction are skipped
// (previously frequent patterns are seeded separately by the caller).
func extensions(g *graph.Graph, ti tripleIndex, qTIDs *pattern.TIDSet, minSup int, qUpdated *pattern.TIDSet) []extCandidate {
	feasible := func(t tripleExt) bool {
		if qTIDs == nil || t.tids == nil {
			return true
		}
		if qTIDs.IntersectCount(t.tids) < minSup {
			return false
		}
		if qUpdated != nil && qUpdated.IntersectCount(t.tids) == 0 {
			return false
		}
		return true
	}
	var out []extCandidate
	n := g.VertexCount()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				continue
			}
			la, lb := g.Labels[u], g.Labels[v]
			if la > lb {
				la, lb = lb, la
			}
			for _, t := range ti.connect[[2]int{la, lb}] {
				if !feasible(t) {
					continue
				}
				ng := g.Clone()
				ng.MustAddEdge(u, v, t.le)
				out = append(out, extCandidate{g: ng, u: u, v: v, tids: t.tids})
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, t := range ti.pendant[g.Labels[u]] {
			if !feasible(t) {
				continue
			}
			ng := g.Clone()
			nv := ng.AddVertex(t.other)
			ng.MustAddEdge(u, nv, t.le)
			out = append(out, extCandidate{g: ng, u: u, v: nv, tids: t.tids})
		}
	}
	return out
}

// removeEdge builds g minus edge (u,v) with isolated vertices dropped,
// returning nil if the result is disconnected or empty. Vertices are
// numbered in the order the remaining edges reach them, and the graph is
// built at its final size (graph.NewSized).
func removeEdge(g *graph.Graph, u, v int) *graph.Graph {
	n := g.VertexCount()
	// remap[w] is w's vertex in the result (-1: isolated), deg[r] the
	// degree of result vertex r.
	var small [32]int
	buf := small[:]
	if 2*n > len(small) {
		buf = make([]int, 2*n)
	}
	remap, deg := buf[:n], buf[n:2*n]
	for i := range remap {
		remap[i] = -1
		deg[i] = 0
	}
	kept := func(a int, e graph.Edge) bool {
		return a < e.To && (a != u || e.To != v)
	}
	k := 0
	for a := 0; a < n; a++ {
		for _, e := range g.Adj[a] {
			if !kept(a, e) {
				continue
			}
			for _, w := range [2]int{a, e.To} {
				if remap[w] == -1 {
					remap[w] = k
					k++
				}
				deg[remap[w]]++
			}
		}
	}
	if k == 0 {
		return nil
	}
	labels := make([]int, k)
	for w, r := range remap {
		if r >= 0 {
			labels[r] = g.Labels[w]
		}
	}
	sub := graph.NewSized(g.ID, labels, deg[:k])
	for a := 0; a < n; a++ {
		for _, e := range g.Adj[a] {
			if kept(a, e) {
				sub.MustAddEdge(remap[a], remap[e.To], e.Label)
			}
		}
	}
	if !sub.Connected() {
		return nil
	}
	return sub
}
