// Package plan compiles pattern graphs into pattern-aware matching
// plans: where VF2 decides its exploration lazily per target, a Plan
// fixes everything that depends only on the pattern once — at compile
// time — and amortizes it across every transaction the pattern is tested
// against. Its production user is the decomposition miner
// (internal/decomp), which verifies each surviving large candidate with
// one plan. The serving read path does not execute plans: a query that
// canonicalizes to a mined pattern is answered from the pattern's mined
// TID set (internal/query), anything else by VF2.
//
// A compiled plan carries three things (Peregrine-style, see PAPERS.md):
//
//  1. A static exploration order chosen from the pattern's structure and
//     the database's selectivity statistics: the root is the vertex on
//     the rarest incident edge triple (falling back to the rarest vertex
//     label, then the highest degree), and every later vertex is the
//     unplaced one with the most already-placed neighbors, tie-broken by
//     the rarest connecting triple. The order is connected whenever the
//     pattern is, so each step after the root is anchored to a placed
//     neighbor and candidates come from that neighbor's adjacency — never
//     from a blind scan.
//
//  2. Symmetry-breaking restrictions computed from the pattern's
//     automorphism group: walking the exploration order, the first vertex
//     whose orbit (under the automorphisms fixing all earlier pivots) is
//     nontrivial becomes a pivot, and the plan records the constraint
//     "target(pivot) < target(u)" for every other orbit member u; the
//     group is then restricted to the pivot's stabilizer and the walk
//     continues. The constraints select exactly one representative per
//     automorphism class — a planned search enumerates each embedding
//     class once instead of |Aut(P)| times, and boolean containment is
//     unchanged because every class contains its representative.
//
//  3. Index-driven candidate generation: root candidates come from the
//     target's per-label posting lists (isomorph.VertexLister), and
//     database-level candidate transactions from the FeatureIndex's label
//     and triple TID bitsets plus signature domination (SupportTIDs).
package plan

import (
	"sync"

	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

// Selectivity supplies database-wide frequency statistics for compile-time
// ordering decisions. *index.FeatureIndex satisfies it; a nil Selectivity
// degrades to structure-only ordering (highest degree first).
type Selectivity interface {
	// LabelFreq returns the database-wide occurrence count of a vertex
	// label.
	LabelFreq(label int) int
	// TripleFreq returns the number of transactions containing the edge
	// triple (la, le, lb); order of la/lb does not matter.
	TripleFreq(la, le, lb int) int
}

// autMaxVertices bounds the automorphism enumeration: Aut(P) is factorial
// in the worst case (uniform-label cliques), so symmetry breaking is
// skipped for patterns larger than this. Mined patterns are far smaller.
const autMaxVertices = 12

// anchor is one compiled edge from a step to an earlier position.
type anchor struct {
	pos   int // earlier order position the edge connects to
	label int // required edge label
}

// step is one position of the compiled exploration order.
type step struct {
	v      int // pattern vertex placed at this position
	label  int // its vertex label
	degree int // its pattern degree (target candidates need >= this)
	// anchors are the edges to already-placed positions; anchors[0]
	// drives candidate generation (the candidate set is the anchor
	// target's adjacency filtered by edge label), the rest are checked.
	// Empty only for the root and for later components of a
	// disconnected pattern.
	anchors []anchor
	// less / greater are symmetry-breaking checks: the target vertex
	// chosen here must be < (resp. >) the vertex mapped at each listed
	// earlier position.
	less, greater []int
}

// Plan is one pattern compiled for repeated matching. Plans are immutable
// after Compile and safe for concurrent use: per-search scratch comes
// from an internal pool.
type Plan struct {
	// Automorphisms is |Aut(P)| as enumerated at compile time (1 when
	// symmetry breaking was skipped); Restrictions counts the compiled
	// symmetry-breaking constraints.
	Automorphisms int
	Restrictions  int

	pat   *graph.Graph
	sig   *index.Signature
	steps []step
	pool  sync.Pool // *matchState
}

// matchState is the per-search scratch of one planned match.
type matchState struct {
	mapping []int  // order position -> target vertex
	used    []bool // target vertex already used
}

// Compile builds the matching plan for pattern graph g. sel (typically
// the database FeatureIndex) guides the exploration order; nil falls back
// to structure-only ordering. g must not be mutated afterwards.
func Compile(g *graph.Graph, sel Selectivity) *Plan {
	p := &Plan{pat: g, sig: index.SigOf(g), Automorphisms: 1}
	p.pool.New = func() any { return &matchState{} }
	n := g.VertexCount()
	if n == 0 {
		return p
	}
	order := exploreOrder(g, sel)
	posOf := make([]int, n)
	for pos, v := range order {
		posOf[v] = pos
	}
	p.steps = make([]step, n)
	for pos, v := range order {
		s := &p.steps[pos]
		s.v, s.label, s.degree = v, g.Labels[v], g.Degree(v)
		for _, e := range g.Adj[v] {
			if ep := posOf[e.To]; ep < pos {
				s.anchors = append(s.anchors, anchor{pos: ep, label: e.Label})
			}
		}
	}
	if g.Connected() && n <= autMaxVertices {
		p.compileRestrictions(order, posOf)
	}
	return p
}

// Graph returns the compiled pattern graph (shared; do not mutate).
func (p *Plan) Graph() *graph.Graph { return p.pat }

// Sig returns the pattern's invariant signature (shared; do not mutate).
func (p *Plan) Sig() *index.Signature { return p.sig }

// Order returns the compiled exploration order as pattern vertex ids.
func (p *Plan) Order() []int {
	out := make([]int, len(p.steps))
	for i := range p.steps {
		out[i] = p.steps[i].v
	}
	return out
}

// exploreOrder picks the static exploration order (see the package
// comment for the heuristic). The order is connected whenever g is; for
// a disconnected g each new component restarts with an unanchored step.
func exploreOrder(g *graph.Graph, sel Selectivity) []int {
	n := g.VertexCount()
	// rarity scores a vertex by its most selective incident triple
	// (fewer supporting transactions = better root); vertices with no
	// edges score the label frequency alone.
	tripleFreq := func(v int) int {
		best := -1
		for _, e := range g.Adj[v] {
			f := sel.TripleFreq(g.Labels[v], e.Label, g.Labels[e.To])
			if best == -1 || f < best {
				best = f
			}
		}
		if best == -1 {
			best = sel.LabelFreq(g.Labels[v])
		}
		return best
	}
	start := 0
	for v := 1; v < n; v++ {
		if sel != nil {
			fv, fs := tripleFreq(v), tripleFreq(start)
			if fv < fs || (fv == fs && betterDegree(g, v, start)) {
				start = v
			}
		} else if betterDegree(g, v, start) {
			start = v
		}
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	order = append(order, start)
	placed[start] = true
	for len(order) < n {
		// Most already-placed neighbors first (most constrained);
		// tie-break by rarest connecting triple, then highest degree.
		best, bestConn, bestFreq := -1, -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			conn, freq := 0, -1
			for _, e := range g.Adj[v] {
				if !placed[e.To] {
					continue
				}
				conn++
				if sel != nil {
					f := sel.TripleFreq(g.Labels[v], e.Label, g.Labels[e.To])
					if freq == -1 || f < freq {
						freq = f
					}
				}
			}
			if conn == 0 {
				continue
			}
			switch {
			case conn > bestConn:
			case conn == bestConn && freq != -1 && freq < bestFreq:
			case conn == bestConn && freq == bestFreq && betterDegree(g, v, best):
			default:
				continue
			}
			best, bestConn, bestFreq = v, conn, freq
		}
		if best == -1 {
			// Disconnected pattern: restart at any remaining vertex. Its
			// step has no anchors, so matching falls back to a label scan
			// for that component's root — correct, just unanchored.
			for v := 0; v < n; v++ {
				if !placed[v] {
					best = v
					break
				}
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

func betterDegree(g *graph.Graph, v, cur int) bool {
	return cur < 0 || g.Degree(v) > g.Degree(cur) || (g.Degree(v) == g.Degree(cur) && v < cur)
}

// compileRestrictions enumerates Aut(P) and compiles the
// symmetry-breaking constraints along the exploration order: at each
// position, if the vertex's orbit under the automorphisms fixing all
// earlier pivots is nontrivial, require its target id to be the minimum
// over the orbit's targets, then keep only the automorphisms fixing it
// (the stabilizer) and continue. Injectivity makes the minimum strict, so
// each automorphism class of embeddings has exactly one member satisfying
// every constraint: the lexicographically-least image along the pivot
// sequence.
func (p *Plan) compileRestrictions(order []int, posOf []int) {
	// Every embedding of a graph into itself is an automorphism (equal
	// vertex and edge counts force surjectivity on both).
	auts := isomorph.Embeddings(p.pat, p.pat)
	p.Automorphisms = len(auts)
	if len(auts) <= 1 {
		return
	}
	live := auts
	for _, v := range order {
		if len(live) <= 1 {
			break
		}
		// Orbit of v under the live subgroup.
		inOrbit := make(map[int]bool, len(live))
		for _, a := range live {
			inOrbit[a[v]] = true
		}
		if len(inOrbit) <= 1 {
			continue
		}
		// Constrain target(v) < target(u) for every other orbit member,
		// attached to whichever of the two positions comes later.
		vp := posOf[v]
		for u := range inOrbit {
			if u == v {
				continue
			}
			up := posOf[u]
			if up > vp {
				// u placed later: its target must exceed v's.
				p.steps[up].greater = append(p.steps[up].greater, vp)
			} else {
				// v placed later: its target must be below u's.
				p.steps[vp].less = append(p.steps[vp].less, up)
			}
			p.Restrictions++
		}
		// Stabilizer: automorphisms fixing v.
		keep := live[:0:0]
		for _, a := range live {
			if a[v] == v {
				keep = append(keep, a)
			}
		}
		live = keep
	}
}

func (p *Plan) getState(targetN int) *matchState {
	st := p.pool.Get().(*matchState)
	if cap(st.mapping) < len(p.steps) {
		st.mapping = make([]int, len(p.steps))
	} else {
		st.mapping = st.mapping[:len(p.steps)]
	}
	if cap(st.used) < targetN {
		st.used = make([]bool, targetN)
	} else {
		st.used = st.used[:targetN]
		for i := range st.used {
			st.used[i] = false
		}
	}
	return st
}

// match extends the mapping from order position pos. emit receives the
// per-position mapping for every complete canonical embedding; returning
// false stops the whole search. match returns false when stopped.
func (p *Plan) match(st *matchState, t *graph.Graph, post isomorph.VertexLister, pos int, emit func([]int) bool) bool {
	if pos == len(p.steps) {
		return emit(st.mapping)
	}
	s := &p.steps[pos]
	try := func(tv int) bool {
		if st.used[tv] || t.Labels[tv] != s.label || t.Degree(tv) < s.degree {
			return true
		}
		for _, ep := range s.greater {
			if tv <= st.mapping[ep] {
				return true
			}
		}
		for _, ep := range s.less {
			if tv >= st.mapping[ep] {
				return true
			}
		}
		// anchors[0] already held by candidate generation when anchored;
		// verify the rest against the target's edge set.
		for i := 1; i < len(s.anchors); i++ {
			a := s.anchors[i]
			if l, ok := t.EdgeLabel(tv, st.mapping[a.pos]); !ok || l != a.label {
				return true
			}
		}
		st.mapping[pos] = tv
		st.used[tv] = true
		cont := p.match(st, t, post, pos+1, emit)
		st.used[tv] = false
		return cont
	}
	if len(s.anchors) > 0 {
		a0 := s.anchors[0]
		at := st.mapping[a0.pos]
		for _, te := range t.Adj[at] {
			if te.Label != a0.label {
				continue
			}
			if !try(te.To) {
				return false
			}
		}
		return true
	}
	if post != nil {
		for _, tv := range post.VerticesWithLabel(s.label) {
			if !try(tv) {
				return false
			}
		}
		return true
	}
	for tv := 0; tv < t.VertexCount(); tv++ {
		if !try(tv) {
			return false
		}
	}
	return true
}

// search runs one planned search over t. post, when non-nil, supplies
// per-label root candidates (it must describe t).
func (p *Plan) search(t *graph.Graph, post isomorph.VertexLister, emit func([]int) bool) {
	if p.pat.VertexCount() > t.VertexCount() || p.pat.EdgeCount() > t.EdgeCount() {
		return
	}
	st := p.getState(t.VertexCount())
	p.match(st, t, post, 0, emit)
	p.pool.Put(st)
}

// Match reports whether the plan's pattern is contained in t, using t's
// per-label posting lists when post is non-nil. Symmetry breaking does
// not change the boolean answer: every embedding class has a canonical
// representative.
func (p *Plan) Match(t *graph.Graph, post isomorph.VertexLister) bool {
	if p.pat.VertexCount() == 0 {
		return true
	}
	found := false
	p.search(t, post, func([]int) bool {
		found = true
		return false
	})
	return found
}

// Embeddings returns every canonical embedding (one representative per
// automorphism class) as pattern-vertex → target-vertex mappings.
func (p *Plan) Embeddings(t *graph.Graph) [][]int {
	if p.pat.VertexCount() == 0 {
		return nil
	}
	var out [][]int
	p.search(t, nil, func(mapping []int) bool {
		emb := make([]int, len(p.steps))
		for pos := range p.steps {
			emb[p.steps[pos].v] = mapping[pos]
		}
		out = append(out, emb)
		return true
	})
	return out
}

// CountEmbeddings counts canonical embeddings: CountEmbeddings(t) ×
// Automorphisms equals the unrestricted embedding count.
func (p *Plan) CountEmbeddings(t *graph.Graph) int {
	if p.pat.VertexCount() == 0 {
		return 0
	}
	n := 0
	p.search(t, nil, func([]int) bool {
		n++
		return true
	})
	return n
}

// MatchIn tests containment in transaction tid of the indexed database:
// signature domination first, then a posted planned match.
func (p *Plan) MatchIn(fx *index.FeatureIndex, tid int) bool {
	if !fx.SigDominates(tid, p.sig) {
		return false
	}
	return p.Match(fx.DB()[tid], fx.Lister(tid))
}

// SupportTIDs computes the pattern's exact support set against the
// indexed database: label/triple bitset narrowing, signature domination,
// then a posted planned match per surviving candidate.
func (p *Plan) SupportTIDs(fx *index.FeatureIndex) *pattern.TIDSet {
	out := pattern.NewTIDSet(fx.Len())
	if p.pat.VertexCount() == 0 {
		return out
	}
	cand := fx.NarrowByFeatures(p.pat, nil)
	if cand == nil {
		return out
	}
	cand.ForEach(func(tid int) {
		if p.MatchIn(fx, tid) {
			out.Add(tid)
		}
	})
	return out
}
