package mergejoin

import (
	"strconv"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// SubKeys memoizes the canonical keys of a pattern's one-edge-removed
// connected subpatterns. The mapping is a pure function of the pattern and
// dominates candidate-check cost (building the removal graphs and
// canonicalizing them), and the same patterns recur at every node of the
// partition tree, so one mining run shares one memo across its merges
// (Config.SubKeys), and the folds chained on the run share it too.
type SubKeys = exec.Cache[[]string]

// maxSubKeyEntries bounds a memo. A memo lives as long as a chain of
// folds, which in a server is until the next full re-mine, so the bound
// is sized for that: an entry holds ≈ 270 B (key and sub-keys), so the
// memo stays under ≈ 18 MB. The benchmark mine fills 619 entries; folds
// whose updates move every graph they touch to unseen labels (the
// frequent set drifts wholesale every 100 folds) add ≈ 3 a fold, so such
// traffic reaches the bound after ≈ 20 000 folds and eviction holds it
// there.
const maxSubKeyEntries = 1 << 16

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

// extCandidate is one extension that passed the generation filters: the
// grown graph, the endpoints of the edge that was added (in the grown
// graph's vertex numbering), and the supporting transactions of its label
// triple.
type extCandidate struct {
	g    *graph.Graph
	u, v int
	tids *pattern.TIDSet
}

// pathKey names a 2-edge path by the label of its centre vertex and its
// two arms, each an (edge label, far vertex label) pair, the smaller arm
// first. Every connected 2-edge pattern is such a path.
type pathKey struct {
	centre int
	arms   [2][2]int
}

func makePathKey(centre, le1, l1, le2, l2 int) pathKey {
	a, b := [2]int{le1, l1}, [2]int{le2, l2}
	if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
		a, b = b, a
	}
	return pathKey{centre: centre, arms: [2][2]int{a, b}}
}

// code returns the path's canonical DFS code: the least of its three DFS
// codes, rooted at the centre (the smaller arm first) or at either end.
func (k pathKey) code() dfscode.Code {
	c, a, b := k.centre, k.arms[0], k.arms[1]
	best := dfscode.Code{{I: 0, J: 1, LI: c, LE: a[0], LJ: a[1]}, {I: 0, J: 2, LI: c, LE: b[0], LJ: b[1]}}
	for _, arms := range [2][2][2]int{{a, b}, {b, a}} {
		end, other := arms[0], arms[1]
		code := dfscode.Code{{I: 0, J: 1, LI: end[1], LE: end[0], LJ: c}, {I: 1, J: 2, LI: c, LE: other[0], LJ: other[1]}}
		if code.Compare(best) < 0 {
			best = code
		}
	}
	return best
}

// pathTable maps every frequent 2-edge pattern of a merge to its
// supporting transactions. It is the two-edge path filter: a supporter of
// a candidate q + e supports each 2-edge path {e, f} through the added
// edge e, so a path missing from the table (infrequent: the table is
// built from the merge's result, complete at two edges) rejects the
// candidate, and the paths' TID sets narrow its bound beyond q's
// supporters ∩ e's.
type pathTable map[pathKey]*pattern.TIDSet

// pathTableOf builds the table from the 2-edge patterns of set.
func pathTableOf(set pattern.Set) pathTable {
	pt := make(pathTable)
	for _, p := range set {
		if p.Size() != 2 {
			continue
		}
		// A 2-edge DFS code is two forward edges, the second leaving the
		// centre: vertex 0 or vertex 1 of the first.
		a, b := p.Code[0], p.Code[1]
		centre, far := a.LI, a.LJ
		if b.I == 1 {
			centre, far = a.LJ, a.LI
		}
		pt[makePathKey(centre, a.LE, far, b.LE, b.LJ)] = p.TIDs
	}
	return pt
}

// through appends to sets the supporters of every 2-edge path {e, f} of
// q + e, where q is g, e joins its vertex u to a vertex v not adjacent to
// u with edge label le, v is labelled lv (v == g.VertexCount() for a
// pendant edge to a new vertex), and f is any edge of g at u or v. It
// stops at the first path missing from the table and returns it with ok
// false.
func (pt pathTable) through(g *graph.Graph, u, v, le, lv int, sets []*pattern.TIDSet) (_ []*pattern.TIDSet, missing pathKey, ok bool) {
	sets, missing, ok = pt.at(g, u, le, lv, sets)
	if ok && v < g.VertexCount() {
		sets, missing, ok = pt.at(g, v, le, g.Labels[u], sets)
	}
	return sets, missing, ok
}

// at is through for the paths centred on c: e joins c to a vertex
// labelled lo.
func (pt pathTable) at(g *graph.Graph, c, le, lo int, sets []*pattern.TIDSet) ([]*pattern.TIDSet, pathKey, bool) {
	for _, f := range g.Adj[c] {
		k := makePathKey(g.Labels[c], le, lo, f.Label, g.Labels[f.To])
		ts, ok := pt[k]
		if !ok {
			return sets, k, false
		}
		if ts != nil {
			sets = append(sets, ts)
		}
	}
	return sets, pathKey{}, true
}

// appendExtKey appends the extension key of q + e to b: q's canonical key,
// then "+u v le lv" — the added edge joins q's vertex u to v with edge
// label le, v is labelled lv, and both are numbered as in q.Code.Graph(),
// with v == q's vertex count for a pendant edge to a new vertex. '+'
// never occurs in a DFS-code key, so the two kinds of border key cannot
// collide. The key names q + e without canonicalising it; automorphic
// attachment points give one graph several keys.
func appendExtKey(b []byte, qKey string, u, v, le, lv int) []byte {
	b = append(b, qKey...)
	b = append(b, '+')
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(le), 10)
	b = append(b, ' ')
	return strconv.AppendInt(b, int64(lv), 10)
}

// generator builds a merge's extensions, level by level, and runs the part
// of the filter chain an extension q + e meets before its graph is
// built. In a fold (fold set) the old border is probed first, on the
// extension key; then, from level 2 on (paths non-nil), the two-edge path
// filter runs. A fold records every rejection under the extension key, so
// the next fold's probe finds it: an old entry that nothing meets is only
// carried, widened by every updated transaction, and a chain of folds
// that recorded nothing for what it never built would wear its border
// away. A mine records none. st collects the current level's generation
// counters.
type generator struct {
	triples tripleIndex
	paths   pathTable
	minSup  int
	fold    bool
	// result is the merge's frequent set so far, against which an old
	// entry's blocker is rechecked; updated, oldBorder and border are the
	// fold's Config fields.
	result    pattern.Set
	updated   *pattern.TIDSet
	oldBorder Border
	border    Border
	// blockers memoizes the canonical keys of missing paths: a fold
	// rejects thousands of extensions on a few hundred paths.
	blockers map[pathKey]string
	st       Stats
	sets     []*pattern.TIDSet
	key      []byte
}

// keep runs the filters on the extension of g (q's graph, canonical key
// qKey, supporters qTIDs, qUpd of them updated) by an edge of triple t
// from u to v, which is labelled lv, and reports whether it survives.
func (gen *generator) keep(g *graph.Graph, qKey string, qTIDs, qUpd *pattern.TIDSet, u, v, lv int, t tripleExt) bool {
	if gen.fold {
		gen.key = appendExtKey(gen.key[:0], qKey, u, v, t.le, lv)
		if e, ok := gen.oldBorder[string(gen.key)]; ok {
			if e, holds := e.recheck(gen.result, gen.updated, updatedSide(gen.updated, qUpd, t.tids), gen.minSup); holds {
				gen.border[string(gen.key)] = e
				gen.st.BorderPruned++
				gen.st.Pruned++
				return false
			}
		}
	}
	if gen.paths == nil {
		return true
	}
	sets, missing, ok := gen.paths.through(g, u, v, t.le, lv, append(gen.sets[:0], qTIDs, t.tids))
	gen.sets = sets
	bounded := qTIDs != nil && t.tids != nil
	if ok && (!bounded || pattern.IntersectCountMulti(sets) >= gen.minSup) {
		return true
	}
	gen.st.PairPruned++
	if gen.fold {
		gen.border[string(gen.key)] = gen.pathEntry(sets, missing, ok)
	}
	return false
}

// pathEntry is the border entry of an extension the path filter
// rejected: the missing path as blocker, or else the narrowed
// intersection — q's supporters ∩ the added triple's ∩ the paths' — as
// bound.
func (gen *generator) pathEntry(sets []*pattern.TIDSet, missing pathKey, ok bool) BorderEntry {
	if !ok {
		key, ok := gen.blockers[missing]
		if !ok {
			key = missing.code().Key()
			gen.blockers[missing] = key
		}
		return BorderEntry{Blocker: key}
	}
	bound := sets[0].Intersect(sets[1])
	for _, ts := range sets[2:] {
		bound.IntersectWith(ts)
	}
	return BorderEntry{Bound: bound}
}

// extensions returns every graph obtained from g, the graph of pattern q
// (canonical key qKey), by adding one edge whose label triple is frequent
// and whose TID upper bound (q's supporting transactions qTIDs
// intersected with the triple's) reaches minSup — either an edge between
// two existing non-adjacent vertices or a pendant edge to a new vertex —
// and that passes keep. qTIDs may be nil to disable the bound. Each graph
// is built only once its extension has passed.
//
// In incremental mode qUpd is q's supporters among the updated
// transactions: a pattern that was infrequent before the update can only
// have become frequent if it occurs in an updated graph, so extensions
// whose upper bound misses every updated transaction are skipped
// (previously frequent patterns are seeded separately by the caller).
func (gen *generator) extensions(g *graph.Graph, qKey string, qTIDs, qUpd *pattern.TIDSet) []extCandidate {
	feasible := func(t tripleExt) bool {
		if qTIDs == nil || t.tids == nil {
			return true
		}
		if qTIDs.IntersectCount(t.tids) < gen.minSup {
			return false
		}
		if qUpd != nil && qUpd.IntersectCount(t.tids) == 0 {
			return false
		}
		return true
	}
	kept := func(u, v, lv int, t tripleExt) bool {
		return feasible(t) && gen.keep(g, qKey, qTIDs, qUpd, u, v, lv, t)
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
			for _, t := range gen.triples.connect[[2]int{la, lb}] {
				if !kept(u, v, g.Labels[v], t) {
					continue
				}
				ng := g.Clone()
				ng.MustAddEdge(u, v, t.le)
				out = append(out, extCandidate{g: ng, u: u, v: v, tids: t.tids})
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, t := range gen.triples.pendant[g.Labels[u]] {
			if !kept(u, n, t.other, t) {
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
