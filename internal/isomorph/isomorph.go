// Package isomorph provides subgraph-isomorphism testing for labeled
// undirected graphs — the frequency-checking primitive behind the
// merge-join operation (paper §4.3) and ad-hoc containment reads, both
// through index.FeatureIndex.Verify. The unit miners count support
// through internal/extend's embedding lists, not through this package.
//
// Matching is VF2-flavored backtracking: pattern vertices are matched in a
// connectivity-preserving order so that every vertex after the first is
// adjacent to an already-matched one, which lets each candidate be checked
// purely against its mapped neighbors. Label and degree filters prune the
// candidate sets. Matching is ordinary subgraph isomorphism (the target may
// have extra edges between mapped vertices), matching the paper's
// definition of supergraph.
//
// The match state (vertex order, mapping, used flags) lives in a Matcher
// that can be prepared once per pattern and reused across targets; the
// one-shot entry points draw Matchers from a pool, so steady-state
// containment tests allocate nothing. Support and SupportIn are the
// plain-scan oracles the indexed path is tested against.
package isomorph

import (
	"sync"

	"partminer/internal/exec"
	"partminer/internal/graph"
)

// matchOrderInto writes an order over pattern vertices into order such
// that each vertex after the first is adjacent to an earlier one, starting
// from the vertex with the highest degree (fail-fast). With a non-nil
// labelFreq the start vertex is instead the one whose label is globally
// rarest (ties broken by degree): the root is the only vertex matched by
// a full candidate scan, so anchoring it on the rarest label minimizes
// that scan — especially when root candidates come from per-label posting
// lists. A disconnected pattern's later components each start at the
// lowest-numbered unordered vertex, which the search roots by a full
// candidate scan just like the start vertex. order and inOrder are scratch
// resized as needed and returned.
func matchOrderInto(p *graph.Graph, order []int, inOrder []bool, labelFreq func(int) int) ([]int, []bool) {
	n := p.VertexCount()
	order = order[:0]
	if n == 0 {
		return order, inOrder
	}
	if cap(inOrder) < n {
		inOrder = make([]bool, n)
	} else {
		inOrder = inOrder[:n]
		for i := range inOrder {
			inOrder[i] = false
		}
	}
	start := 0
	if labelFreq == nil {
		for v := 1; v < n; v++ {
			if p.Degree(v) > p.Degree(start) {
				start = v
			}
		}
	} else {
		for v := 1; v < n; v++ {
			fv, fs := labelFreq(p.Labels[v]), labelFreq(p.Labels[start])
			if fv < fs || (fv == fs && p.Degree(v) > p.Degree(start)) {
				start = v
			}
		}
	}
	order = append(order, start)
	inOrder[start] = true
	for len(order) < n {
		// Pick the unmatched vertex with the most already-ordered
		// neighbors (most constrained first), breaking ties by degree.
		best, bestConn := -1, -1
		for v := 0; v < n; v++ {
			if inOrder[v] {
				continue
			}
			conn := 0
			for _, e := range p.Adj[v] {
				if inOrder[e.To] {
					conn++
				}
			}
			if conn == 0 {
				continue
			}
			if conn > bestConn || (conn == bestConn && p.Degree(v) > p.Degree(best)) {
				best, bestConn = v, conn
			}
		}
		if best == -1 {
			// Disconnected pattern: the ordered component is complete, so
			// start the next one at any remaining vertex. It has no mapped
			// neighbor, so match roots it by a full (or posted) candidate
			// scan, and the answer stays exact.
			for v := 0; v < n; v++ {
				if !inOrder[v] {
					best = v
					break
				}
			}
		}
		order = append(order, best)
		inOrder[best] = true
	}
	return order, inOrder
}

// Matcher is one pattern prepared for repeated containment tests: the
// match order is computed once, and the mapping/used scratch is reused
// across targets. A Matcher is not safe for concurrent use; callers that
// test one pattern against many targets (support counting, query
// verification) should prepare a Matcher instead of calling Contains in a
// loop.
type Matcher struct {
	p       *graph.Graph
	t       *graph.Graph
	order   []int
	inOrder []bool // matchOrderInto scratch, retained for reuse
	mapping []int  // pattern vertex -> target vertex, -1 if unmapped
	used    []bool // target vertex already used
	// labelFreq, when non-nil, switches the match order's root choice to
	// rarest-label-first (see matchOrderInto); index-backed matchers set
	// it to the database-wide label frequency.
	labelFreq func(int) int
	// post, when non-nil, supplies the root candidates for the current
	// search: only the target vertices carrying the root's label are
	// scanned instead of all of them.
	post VertexLister
	// tick, when non-nil, aborts the backtracking search on cooperative
	// cancellation; an aborted search reports "no match" and the caller
	// is expected to discard the result after observing the context.
	tick *exec.Ticker
	// steps counts search-tree nodes (match invocations) across the
	// matcher's lifetime — the observability currency for VF2 effort,
	// which index.FeatureIndex.Verify returns as VerifyStats.Steps.
	steps int64
}

// VertexLister provides per-label vertex posting lists for one target
// graph; internal/index precomputes these per transaction so root
// candidate selection is O(|vertices with the root's label|).
type VertexLister interface {
	// VerticesWithLabel returns the target vertices carrying label (any
	// order; nil/empty when the label is absent).
	VerticesWithLabel(label int) []int
}

// NewMatcher prepares pattern for repeated containment tests.
func NewMatcher(pattern *graph.Graph) *Matcher {
	m := &Matcher{}
	m.reset(pattern)
	return m
}

// NewMatcherRanked is NewMatcher with the rarest-label-first root choice:
// labelFreq reports how often a vertex label occurs database-wide, and
// the match order starts at the pattern vertex with the rarest label.
func NewMatcherRanked(pattern *graph.Graph, labelFreq func(int) int) *Matcher {
	m := &Matcher{labelFreq: labelFreq}
	m.reset(pattern)
	return m
}

// reset re-targets the matcher at a new pattern, reusing its scratch.
func (m *Matcher) reset(pattern *graph.Graph) {
	m.p = pattern
	m.order, m.inOrder = matchOrderInto(pattern, m.order, m.inOrder, m.labelFreq)
	n := pattern.VertexCount()
	if cap(m.mapping) < n {
		m.mapping = make([]int, n)
	} else {
		m.mapping = m.mapping[:n]
	}
	for i := range m.mapping {
		m.mapping[i] = -1
	}
}

// setTarget points the matcher at a target graph, clearing the used
// flags. The mapping is already all -1: every search trip unwinds its
// assignments, and early-stopped searches are re-cleared in search.
func (m *Matcher) setTarget(target *graph.Graph) {
	m.t = target
	n := target.VertexCount()
	if cap(m.used) < n {
		m.used = make([]bool, n)
	} else {
		m.used = m.used[:n]
		for i := range m.used {
			m.used[i] = false
		}
	}
}

// matcherPool recycles Matchers for the one-shot entry points.
var matcherPool = sync.Pool{New: func() any { return &Matcher{} }}

func acquireMatcher(pattern *graph.Graph) *Matcher {
	m := matcherPool.Get().(*Matcher)
	m.reset(pattern)
	return m
}

func releaseMatcher(m *Matcher) {
	m.p, m.t, m.tick = nil, nil, nil // drop graph references while pooled
	m.labelFreq, m.post = nil, nil
	matcherPool.Put(m)
}

// feasible reports whether mapping pattern vertex pv to target vertex tv is
// consistent with the current partial mapping.
func (m *Matcher) feasible(pv, tv int) bool {
	if m.used[tv] || m.p.Labels[pv] != m.t.Labels[tv] || m.t.Degree(tv) < m.p.Degree(pv) {
		return false
	}
	for _, e := range m.p.Adj[pv] {
		mt := m.mapping[e.To]
		if mt == -1 {
			continue
		}
		if l, ok := m.t.EdgeLabel(tv, mt); !ok || l != e.Label {
			return false
		}
	}
	return true
}

// match recursively extends the mapping from position idx in the match
// order. visit is called with the complete mapping; returning false stops
// the search.
func (m *Matcher) match(idx int, visit func(mapping []int) bool) bool {
	m.steps++
	if m.tick.Hit() {
		return false // cancelled: abandon the search
	}
	if idx == len(m.order) {
		return visit(m.mapping)
	}
	pv := m.order[idx]
	// Candidates: if pv has a mapped neighbor, only that neighbor's target
	// adjacency needs scanning; otherwise scan all target vertices.
	var anchor, anchorLabel = -1, 0
	for _, e := range m.p.Adj[pv] {
		if mt := m.mapping[e.To]; mt != -1 {
			anchor, anchorLabel = mt, e.Label
			break
		}
	}
	if anchor != -1 {
		for _, te := range m.t.Adj[anchor] {
			if te.Label != anchorLabel {
				continue
			}
			tv := te.To
			if !m.feasible(pv, tv) {
				continue
			}
			m.mapping[pv] = tv
			m.used[tv] = true
			cont := m.match(idx+1, visit)
			m.mapping[pv] = -1
			m.used[tv] = false
			if !cont {
				return false
			}
		}
		return true
	}
	if m.post != nil {
		// Indexed root selection: only target vertices carrying pv's
		// label can host it (feasible re-checks the label, so a sloppy
		// lister degrades to correctness, not wrong answers).
		for _, tv := range m.post.VerticesWithLabel(m.p.Labels[pv]) {
			if !m.feasible(pv, tv) {
				continue
			}
			m.mapping[pv] = tv
			m.used[tv] = true
			cont := m.match(idx+1, visit)
			m.mapping[pv] = -1
			m.used[tv] = false
			if !cont {
				return false
			}
		}
		return true
	}
	for tv := 0; tv < m.t.VertexCount(); tv++ {
		if !m.feasible(pv, tv) {
			continue
		}
		m.mapping[pv] = tv
		m.used[tv] = true
		cont := m.match(idx+1, visit)
		m.mapping[pv] = -1
		m.used[tv] = false
		if !cont {
			return false
		}
	}
	return true
}

// search runs one full match against target, restoring the mapping to
// all -1 afterwards so the matcher is immediately reusable.
func (m *Matcher) search(target *graph.Graph, visit func(mapping []int) bool) {
	m.setTarget(target)
	m.match(0, visit)
	for i := range m.mapping {
		m.mapping[i] = -1 // early-stopped searches leave assignments behind
	}
}

// Steps returns the cumulative number of search-tree nodes the matcher
// has explored. The delta across a batch of Contains calls measures
// verification effort independent of wall clock.
func (m *Matcher) Steps() int64 { return m.steps }

// Contains reports whether the matcher's pattern is contained in target.
func (m *Matcher) Contains(target *graph.Graph) bool {
	return m.ContainsPosted(target, nil, nil)
}

// ContainsPosted is Contains with per-label root candidates and
// cooperative cancellation. A non-nil post makes every unanchored (root)
// scan enumerate only post.VerticesWithLabel(root's label) instead of
// every target vertex; post must describe target. When tick fires
// mid-search the search is abandoned and false is returned, so callers
// must check the cancellation source before trusting a negative answer.
func (m *Matcher) ContainsPosted(target *graph.Graph, post VertexLister, tick *exec.Ticker) bool {
	if m.p.VertexCount() == 0 {
		return true
	}
	if m.p.VertexCount() > target.VertexCount() || m.p.EdgeCount() > target.EdgeCount() {
		return false
	}
	m.post, m.tick = post, tick
	found := false
	m.search(target, func([]int) bool {
		found = true
		return false
	})
	m.post = nil
	return found
}

// Contains reports whether pattern is subgraph-isomorphic to target, i.e.
// target is a supergraph of pattern in the paper's terminology. The empty
// pattern is contained in every graph.
func Contains(target, pattern *graph.Graph) bool {
	if pattern.VertexCount() > target.VertexCount() || pattern.EdgeCount() > target.EdgeCount() {
		return false
	}
	m := acquireMatcher(pattern)
	found := m.Contains(target)
	releaseMatcher(m)
	return found
}

// Support returns the number of graphs in db that contain pattern; the
// empty pattern is contained in every graph. It is the plain-scan oracle
// the indexed verify loop (index.FeatureIndex.Verify) is tested against.
func Support(db graph.Database, pattern *graph.Graph) int {
	m := acquireMatcher(pattern)
	n := 0
	for _, g := range db {
		if m.Contains(g) {
			n++
		}
	}
	releaseMatcher(m)
	return n
}

// SupportIn is Support over the transaction ids in tids only, which must
// be valid indexes into db.
func SupportIn(db graph.Database, pattern *graph.Graph, tids []int) int {
	m := acquireMatcher(pattern)
	n := 0
	for _, tid := range tids {
		if m.Contains(db[tid]) {
			n++
		}
	}
	releaseMatcher(m)
	return n
}
