// Package index provides the per-database feature index that fronts
// every support-counting path in the repository: cheap structural
// invariants computed once per database that eliminate most subgraph-
// isomorphism calls before they start (the same observation pattern-aware
// systems like Peregrine build on).
//
// A FeatureIndex holds three layers of precomputed structure:
//
//   - Inverted indexes: vertex-label → TID bitset and edge-triple
//     (la, le, lb) → TID bitset maps over the whole database.
//   - Per-transaction invariant signatures: the vertex-label histogram,
//     edge-triple counts, and max-degree-per-label of each graph. A
//     pattern can only be contained in a transaction whose signature
//     dominates the pattern's (see signature.dominates for the soundness
//     argument), so signature comparison — a handful of sorted-slice
//     walks — replaces most failing VF2 searches.
//   - Per-transaction label → vertex-id posting lists, which turn VF2
//     root-candidate selection from a scan of all n target vertices into
//     a scan of only the vertices carrying the root's label.
//
// Containment is decided in one place: CandidateTIDs narrows by the
// inverted indexes, and Verify runs signature domination then posted VF2
// over a TID set. The merge-join's frequency check and ad-hoc reads both
// end in Verify.
//
// The index is built in one pass over the database (optionally in
// parallel on an exec.Pool) and is immutable afterwards except through
// Update, which recomputes only the entries of updated transactions —
// the incremental miner's path.
package index

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/isomorph"
	"partminer/internal/obs"
	"partminer/internal/pattern"
)

// Triple is a normalized undirected edge label triple: the two endpoint
// vertex labels with LA <= LB, plus the edge label.
type Triple struct {
	LA, LE, LB int
}

// MakeTriple normalizes endpoint labels into a Triple.
func MakeTriple(la, le, lb int) Triple {
	if la > lb {
		la, lb = lb, la
	}
	return Triple{LA: la, LE: le, LB: lb}
}

// labelCount is one vertex label's entry in a signature: how many
// vertices carry it and the largest degree among them. Slices of
// labelCount are kept sorted by label.
type labelCount struct {
	label, n, maxDeg int
}

// tripleCount pairs a triple with its multiplicity, sorted by triple.
type tripleCount struct {
	t Triple
	n int
}

// signature is the invariant summary of one graph: its vertex-label
// histogram with the maximum vertex degree per label, and its
// edge-triple counts, each as a slice sorted by label/triple. sigOf
// computes it for transactions (at index build) and for patterns (in
// Verify).
type signature struct {
	labels  []labelCount
	triples []tripleCount
}

// sigOf computes the invariant signature of g in one pass per component:
// each slice is allocated once at its upper bound (one entry per vertex,
// one per edge), sorted, and run-length compacted in place.
func sigOf(g *graph.Graph) signature {
	var s signature
	n := g.VertexCount()
	if n == 0 {
		return s
	}
	labels := make([]labelCount, n)
	for v, l := range g.Labels {
		labels[v] = labelCount{label: l, n: 1}
	}
	slices.SortFunc(labels, func(a, b labelCount) int { return cmp.Compare(a.label, b.label) })
	s.labels = labels[:0]
	for _, lc := range labels {
		if k := len(s.labels); k > 0 && s.labels[k-1].label == lc.label {
			s.labels[k-1].n++
		} else {
			s.labels = append(s.labels, lc)
		}
	}
	// Max degree per label, on the distinct labels above.
	for v := 0; v < n; v++ {
		i := findLabel(s.labels, g.Labels[v])
		if d := g.Degree(v); d > s.labels[i].maxDeg {
			s.labels[i].maxDeg = d
		}
	}
	// Edge-triple counts.
	triples := make([]tripleCount, 0, g.EdgeCount())
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u < e.To {
				triples = append(triples, tripleCount{t: MakeTriple(g.Labels[u], e.Label, g.Labels[e.To]), n: 1})
			}
		}
	}
	slices.SortFunc(triples, func(a, b tripleCount) int { return tripleCmp(a.t, b.t) })
	s.triples = triples[:0]
	for _, tc := range triples {
		if k := len(s.triples); k > 0 && s.triples[k-1].t == tc.t {
			s.triples[k-1].n++
		} else {
			s.triples = append(s.triples, tc)
		}
	}
	return s
}

// tripleCmp orders triples by (LA, LE, LB).
func tripleCmp(a, b Triple) int {
	if c := cmp.Compare(a.LA, b.LA); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LE, b.LE); c != 0 {
		return c
	}
	return cmp.Compare(a.LB, b.LB)
}

// findLabel binary-searches a label-sorted slice; returns -1 if absent.
func findLabel(s []labelCount, label int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].label < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].label == label {
		return lo
	}
	return -1
}

// dominates reports whether a graph with signature s can possibly contain
// a subgraph with signature p. It is a sound filter for subgraph
// isomorphism:
//
//   - An embedding maps distinct pattern vertices to distinct target
//     vertices of the same label, so every pattern label count must be
//     covered by the target's histogram.
//   - Distinct pattern edges map to distinct target edges with the same
//     label triple, so every pattern triple count must be covered.
//   - A pattern vertex of degree d maps to a target vertex of the same
//     label with degree >= d, so the pattern's max degree per label must
//     not exceed the target's.
//
// It never filters a true containment; it may admit false positives,
// which the exact VF2 check behind it resolves.
func (s signature) dominates(p signature) bool {
	// Both sides sorted: merge-walk each component.
	i := 0
	for _, pc := range p.labels {
		for i < len(s.labels) && s.labels[i].label < pc.label {
			i++
		}
		if i == len(s.labels) || s.labels[i].label != pc.label || s.labels[i].n < pc.n || s.labels[i].maxDeg < pc.maxDeg {
			return false
		}
	}
	i = 0
	for _, pc := range p.triples {
		for i < len(s.triples) && tripleCmp(s.triples[i].t, pc.t) < 0 {
			i++
		}
		if i == len(s.triples) || s.triples[i].t != pc.t || s.triples[i].n < pc.n {
			return false
		}
	}
	return true
}

// txPostings is one transaction's label → vertex-id posting lists in a
// compact grouped layout: verts holds the vertex ids grouped by label,
// labels/starts delimit the groups (starts has len(labels)+1 entries).
type txPostings struct {
	labels []int
	starts []int
	verts  []int
}

// VerticesWithLabel returns the transaction's vertices carrying label,
// ascending; it implements isomorph.VertexLister.
func (p *txPostings) VerticesWithLabel(label int) []int {
	lo, hi := 0, len(p.labels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.labels[mid] < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(p.labels) || p.labels[lo] != label {
		return nil
	}
	return p.verts[p.starts[lo]:p.starts[lo+1]]
}

// postingsOf lays out g's vertices grouped by label, using the label
// histogram already computed in sig. The three slices share one backing
// array.
func postingsOf(g *graph.Graph, sig *signature) txPostings {
	k, n := len(sig.labels), g.VertexCount()
	buf := make([]int, 2*k+1+n)
	p := txPostings{
		labels: buf[:k:k],
		starts: buf[k : 2*k+1 : 2*k+1],
		verts:  buf[2*k+1:],
	}
	// starts[i+1] is first group i's fill cursor, starting at the group's
	// offset; once every vertex is placed it is the group's end, i.e.
	// group i+1's start. Vertex order inside a group is ascending
	// because vertices are visited in id order.
	off := 0
	for i, lc := range sig.labels {
		p.labels[i] = lc.label
		p.starts[i+1] = off
		off += lc.n
	}
	for v := 0; v < n; v++ {
		i := sort.SearchInts(p.labels, g.Labels[v])
		p.verts[p.starts[i+1]] = v
		p.starts[i+1]++
	}
	return p
}

// FeatureIndex is the per-database feature index. Build it once per
// database (per mining run); it is safe for concurrent readers after
// construction. Update re-points it at a modified database in place and
// must not race with readers.
type FeatureIndex struct {
	db graph.Database

	// Inverted indexes over the whole database.
	labelTIDs  map[int]*pattern.TIDSet
	tripleTIDs map[Triple]*pattern.TIDSet

	// Per-transaction invariants.
	sigs  []signature
	posts []txPostings

	// labelFreq counts vertex-label occurrences database-wide; the
	// rarest-root matcher heuristic ranks root candidates by it.
	labelFreq map[int]int
}

// Build constructs the index serially.
func Build(db graph.Database) *FeatureIndex {
	ix, _ := BuildContext(context.Background(), db, nil, nil)
	return ix
}

// BuildContext constructs the index, computing per-transaction signatures
// and posting lists on pool when one is provided (nil builds serially).
// The build is reported to obs as stage "index.build". On cancellation it
// returns nil and ctx.Err().
func BuildContext(ctx context.Context, db graph.Database, pool *exec.Pool, o exec.Observer) (*FeatureIndex, error) {
	// When the run is traced, fold the active span into the reporting
	// target so index construction shows up on the trace tree.
	if sp := obs.SpanFrom(ctx); sp != nil {
		o = exec.Multi(o, sp)
	}
	defer exec.StageTimer(o, "index.build")()
	ix := &FeatureIndex{
		db:         db,
		labelTIDs:  make(map[int]*pattern.TIDSet),
		tripleTIDs: make(map[Triple]*pattern.TIDSet),
		sigs:       make([]signature, len(db)),
		posts:      make([]txPostings, len(db)),
		labelFreq:  make(map[int]int),
	}
	// Per-transaction invariants are independent: fan out on the pool.
	buildTx := func(tid int) {
		ix.sigs[tid] = sigOf(db[tid])
		ix.posts[tid] = postingsOf(db[tid], &ix.sigs[tid])
	}
	if pool != nil && pool.Workers() > 1 && len(db) > 1 {
		if err := pool.Map(ctx, len(db), buildTx); err != nil {
			return nil, err
		}
	} else {
		for tid := range db {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			buildTx(tid)
		}
	}
	// Inverted maps are derived serially from the signatures (map writes
	// are not concurrency-safe); this pass is a cheap walk over them.
	for tid := range db {
		ix.addInverted(tid)
	}
	exec.Count(o, "index.triples", int64(len(ix.tripleTIDs)))
	return ix, nil
}

// addInverted merges transaction tid's labels and triples into the
// database-wide inverted structures. The transaction's signature must
// already be computed.
func (ix *FeatureIndex) addInverted(tid int) {
	for _, lc := range ix.sigs[tid].labels {
		ts, ok := ix.labelTIDs[lc.label]
		if !ok {
			ts = pattern.NewTIDSet(len(ix.db))
			ix.labelTIDs[lc.label] = ts
		}
		ts.Add(tid)
		ix.labelFreq[lc.label] += lc.n
	}
	for _, tc := range ix.sigs[tid].triples {
		ts, ok := ix.tripleTIDs[tc.t]
		if !ok {
			ts = pattern.NewTIDSet(len(ix.db))
			ix.tripleTIDs[tc.t] = ts
		}
		ts.Add(tid)
	}
}

// FrequentEdges returns the 1-edge patterns with support >= minSup,
// read directly off the inverted triple index — no database scan. The
// returned TID sets are private copies.
func (ix *FeatureIndex) FrequentEdges(minSup int) pattern.Set {
	out := make(pattern.Set)
	for t, ts := range ix.tripleTIDs {
		if sup := ts.Count(); sup >= minSup {
			code := dfscode.Code{{I: 0, J: 1, LI: t.LA, LE: t.LE, LJ: t.LB}}
			out[code.Key()] = &pattern.Pattern{Code: code, Support: sup, TIDs: ts.Clone()}
		}
	}
	return out
}

// CandidateTIDs returns the transactions that can possibly contain g per
// the inverted indexes: the TID bitsets of every distinct vertex label and
// edge triple of g intersected (supporters of g must contain each of
// them). The result is always freshly allocated; it is empty when some
// feature of g occurs nowhere, and every transaction for the vertexless
// graph.
func (ix *FeatureIndex) CandidateTIDs(g *graph.Graph) *pattern.TIDSet {
	out := pattern.FullTIDSet(len(ix.db))
	for v := 0; v < g.VertexCount(); v++ {
		ts := ix.labelTIDs[g.Labels[v]]
		if ts == nil {
			return pattern.NewTIDSet(len(ix.db))
		}
		out.IntersectWith(ts)
	}
	for u := 0; u < g.VertexCount(); u++ {
		for _, e := range g.Adj[u] {
			if u > e.To {
				continue
			}
			ts := ix.tripleTIDs[MakeTriple(g.Labels[u], e.Label, g.Labels[e.To])]
			if ts == nil {
				return pattern.NewTIDSet(len(ix.db))
			}
			out.IntersectWith(ts)
		}
	}
	return out
}

// VerifyStats counts the work of one Verify call.
type VerifyStats struct {
	// SigPruned counts transactions dismissed by signature domination.
	SigPruned int64
	// IsoTests counts VF2 runs.
	IsoTests int64
	// Steps counts VF2 search-tree nodes over all of those runs.
	Steps int64
}

// Verify decides which transactions of cand contain p — the paper's
// frequency check (Fig. 11) and the last step of an ad-hoc read. It walks
// cand ascending: a TID in known (nil for none) is a supporter without a
// test; any other must pass signature domination, then a posted VF2 run
// rooted at p's globally rarest label. It returns the supporters, freshly
// allocated, with the work done. The empty pattern is contained in every
// graph, so for it Verify returns a copy of cand.
//
// When tick fires the walk stops, and the partial answer must be
// discarded after observing the context.
func (ix *FeatureIndex) Verify(p *graph.Graph, cand, known *pattern.TIDSet, tick *exec.Ticker) (*pattern.TIDSet, VerifyStats) {
	var st VerifyStats
	if p.VertexCount() == 0 {
		return cand.Clone(), st
	}
	out := pattern.NewTIDSet(len(ix.db))
	// One matcher for every transaction: the match order is computed once
	// and its scratch state is reused.
	m := isomorph.NewMatcherRanked(p, func(label int) int { return ix.labelFreq[label] })
	psig := sigOf(p)
	// Allocation-free walk of the candidate TID words.
	cand.ForEachUntil(func(tid int) bool {
		if tick.Hit() {
			return false
		}
		if known != nil && known.Contains(tid) {
			out.Add(tid)
			return true
		}
		if !ix.sigs[tid].dominates(psig) {
			st.SigPruned++
			return true
		}
		st.IsoTests++
		if m.ContainsPosted(ix.db[tid], &ix.posts[tid], tick) {
			out.Add(tid)
		}
		return true
	})
	st.Steps = m.Steps()
	return out, st
}

// Clone returns an independently updatable copy of the index: Update on
// the clone never mutates the original, so a reader holding the original
// (e.g. a published server snapshot) stays consistent while a writer
// patches the clone — the RCU pattern internal/server builds on.
//
// The copy is as shallow as Update's mutation granularity allows:
// TID bitsets and the bookkeeping maps are deep-copied (Update patches
// them bit by bit), while signatures and posting lists are shared —
// Update replaces those wholesale per transaction, never in place.
func (ix *FeatureIndex) Clone() *FeatureIndex {
	c := &FeatureIndex{
		db:         append(graph.Database(nil), ix.db...),
		labelTIDs:  make(map[int]*pattern.TIDSet, len(ix.labelTIDs)),
		tripleTIDs: make(map[Triple]*pattern.TIDSet, len(ix.tripleTIDs)),
		sigs:       append([]signature(nil), ix.sigs...),
		posts:      append([]txPostings(nil), ix.posts...),
		labelFreq:  make(map[int]int, len(ix.labelFreq)),
	}
	for l, ts := range ix.labelTIDs {
		c.labelTIDs[l] = ts.Clone()
	}
	for t, ts := range ix.tripleTIDs {
		c.tripleTIDs[t] = ts.Clone()
	}
	for l, n := range ix.labelFreq {
		c.labelFreq[l] = n
	}
	return c
}

// Update re-indexes the transactions listed in updated against newDB
// (same length and transaction order as the indexed database; only the
// listed graphs may differ). Everything about unchanged transactions is
// reused; the inverted maps are patched in place, and a triple no
// transaction has any more leaves them.
// Update must not race with concurrent readers.
func (ix *FeatureIndex) Update(newDB graph.Database, updated []int) {
	// Retire the updated transactions' old contributions.
	retired := make(map[Triple]bool)
	for _, tid := range updated {
		old := ix.sigs[tid]
		for _, lc := range old.labels {
			ix.labelFreq[lc.label] -= lc.n
			if ix.labelFreq[lc.label] <= 0 {
				delete(ix.labelFreq, lc.label)
			}
			if ts := ix.labelTIDs[lc.label]; ts != nil {
				ts.Remove(tid)
			}
		}
		for _, tc := range old.triples {
			retired[tc.t] = true
			if ts := ix.tripleTIDs[tc.t]; ts != nil {
				ts.Remove(tid)
			}
		}
	}

	// Recompute the per-transaction invariants and re-add label/triple
	// bits from the new graphs.
	ix.db = newDB
	for _, tid := range updated {
		ix.sigs[tid] = sigOf(newDB[tid])
		sig := &ix.sigs[tid]
		ix.posts[tid] = postingsOf(newDB[tid], sig)
		for _, lc := range sig.labels {
			ix.labelFreq[lc.label] += lc.n
			ts, ok := ix.labelTIDs[lc.label]
			if !ok {
				ts = pattern.NewTIDSet(len(newDB))
				ix.labelTIDs[lc.label] = ts
			}
			ts.Add(tid)
		}
		for _, tc := range sig.triples {
			ts, ok := ix.tripleTIDs[tc.t]
			if !ok {
				ts = pattern.NewTIDSet(len(newDB))
				ix.tripleTIDs[tc.t] = ts
			}
			ts.Add(tid)
		}
	}
	for t := range retired {
		if ix.tripleTIDs[t].Count() == 0 {
			delete(ix.tripleTIDs, t)
		}
	}
}
