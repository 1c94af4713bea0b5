// Package index provides the per-database feature index that fronts
// every support-counting path in the repository: cheap structural
// invariants computed once per database that eliminate most subgraph-
// isomorphism calls before they start (the same observation pattern-aware
// systems like Peregrine build on).
//
// A FeatureIndex holds three layers of precomputed structure:
//
//   - Inverted indexes: vertex-label → TID bitset and edge-triple
//     (la, le, lb) → TID bitset maps over the whole database, plus the
//     per-triple edge occurrence lists the miners seed their initial
//     projections from.
//   - Per-transaction invariant signatures: the vertex-label histogram,
//     edge-triple counts, and max-degree-per-label of each graph. A
//     pattern can only be contained in a transaction whose signature
//     dominates the pattern's (see Signature.Dominates for the soundness
//     argument), so signature comparison — a handful of sorted-slice
//     walks — replaces most failing VF2 searches.
//   - Per-transaction label → vertex-id posting lists, which turn VF2
//     root-candidate selection from a scan of all n target vertices into
//     a scan of only the vertices carrying the root's label.
//
// The index is built in one pass over the database (optionally in
// parallel on an exec.Pool) and is immutable afterwards except through
// Update, which recomputes only the entries of updated transactions —
// the incremental miner's path.
package index

import (
	"context"
	"sort"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/extend"
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

// labelCount pairs a vertex label with a count (histogram entry or
// max-degree entry). Slices of labelCount are kept sorted by label.
type labelCount struct {
	label, n int
}

// tripleCount pairs a triple with its multiplicity, sorted by triple.
type tripleCount struct {
	t Triple
	n int
}

// Signature is the invariant summary of one graph: its vertex-label
// histogram, edge-triple counts, and the maximum vertex degree per
// label, each as a slice sorted by label/triple. Signatures are computed
// by SigOf for transactions (at index build) and for candidate patterns
// (at verification).
type Signature struct {
	labels  []labelCount
	triples []tripleCount
	maxDeg  []labelCount
}

// SigOf computes the invariant signature of g.
func SigOf(g *graph.Graph) *Signature {
	s := &Signature{}
	n := g.VertexCount()
	if n == 0 {
		return s
	}
	// Vertex-label histogram: sort a copy of the label vector and
	// run-length encode it.
	labels := append([]int(nil), g.Labels...)
	sort.Ints(labels)
	for i := 0; i < len(labels); {
		j := i
		for j < len(labels) && labels[j] == labels[i] {
			j++
		}
		s.labels = append(s.labels, labelCount{label: labels[i], n: j - i})
		i = j
	}
	// Max degree per label, aligned with the distinct labels above.
	s.maxDeg = make([]labelCount, len(s.labels))
	for i, lc := range s.labels {
		s.maxDeg[i].label = lc.label
	}
	for v := 0; v < n; v++ {
		i := findLabel(s.maxDeg, g.Labels[v])
		if d := g.Degree(v); d > s.maxDeg[i].n {
			s.maxDeg[i].n = d
		}
	}
	// Edge-triple counts.
	var triples []Triple
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u > e.To {
				continue
			}
			triples = append(triples, MakeTriple(g.Labels[u], e.Label, g.Labels[e.To]))
		}
	}
	sort.Slice(triples, func(i, j int) bool { return tripleLess(triples[i], triples[j]) })
	for i := 0; i < len(triples); {
		j := i
		for j < len(triples) && triples[j] == triples[i] {
			j++
		}
		s.triples = append(s.triples, tripleCount{t: triples[i], n: j - i})
		i = j
	}
	return s
}

func tripleLess(a, b Triple) bool {
	if a.LA != b.LA {
		return a.LA < b.LA
	}
	if a.LE != b.LE {
		return a.LE < b.LE
	}
	return a.LB < b.LB
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

// Dominates reports whether a graph with signature s can possibly contain
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
func (s *Signature) Dominates(p *Signature) bool {
	// Both sides sorted: merge-walk each component.
	i := 0
	for _, pc := range p.labels {
		for i < len(s.labels) && s.labels[i].label < pc.label {
			i++
		}
		if i == len(s.labels) || s.labels[i].label != pc.label || s.labels[i].n < pc.n {
			return false
		}
	}
	i = 0
	for _, pc := range p.maxDeg {
		for i < len(s.maxDeg) && s.maxDeg[i].label < pc.label {
			i++
		}
		if i == len(s.maxDeg) || s.maxDeg[i].label != pc.label || s.maxDeg[i].n < pc.n {
			return false
		}
	}
	i = 0
	for _, pc := range p.triples {
		for i < len(s.triples) && tripleLess(s.triples[i].t, pc.t) {
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
// histogram already computed in sig.
func postingsOf(g *graph.Graph, sig *Signature) txPostings {
	p := txPostings{
		labels: make([]int, len(sig.labels)),
		starts: make([]int, len(sig.labels)+1),
		verts:  make([]int, g.VertexCount()),
	}
	for i, lc := range sig.labels {
		p.labels[i] = lc.label
		p.starts[i+1] = p.starts[i] + lc.n
	}
	// Fill each group with a per-group cursor; vertex order inside a
	// group is ascending because vertices are visited in id order.
	cursor := append([]int(nil), p.starts[:len(p.labels)]...)
	for v := 0; v < g.VertexCount(); v++ {
		i := sort.SearchInts(p.labels, g.Labels[v])
		p.verts[cursor[i]] = v
		cursor[i]++
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
	// occs lists every edge occurrence per triple, ordered by TID (and
	// by discovery order within a transaction) — the seed material for
	// the miners' initial projections. For symmetric triples (LA == LB)
	// each undirected edge appears once with U < V.
	occs map[Triple][]extend.EdgeOcc

	// Per-transaction invariants.
	sigs  []*Signature
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
		occs:       make(map[Triple][]extend.EdgeOcc),
		sigs:       make([]*Signature, len(db)),
		posts:      make([]txPostings, len(db)),
		labelFreq:  make(map[int]int),
	}
	// Per-transaction invariants are independent: fan out on the pool.
	buildTx := func(tid int) {
		sig := SigOf(db[tid])
		ix.sigs[tid] = sig
		ix.posts[tid] = postingsOf(db[tid], sig)
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
	// Inverted maps and occurrence lists are derived serially from the
	// signatures (map writes are not concurrency-safe); this pass is a
	// cheap O(V+E) walk.
	for tid := range db {
		ix.addInverted(tid)
	}
	exec.Count(o, "index.triples", int64(len(ix.tripleTIDs)))
	return ix, nil
}

// addInverted merges transaction tid's labels, triples, and edge
// occurrences into the database-wide inverted structures. The
// transaction's signature must already be computed.
func (ix *FeatureIndex) addInverted(tid int) {
	g := ix.db[tid]
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
	// Occurrences in the same orientation/order extend.Initial discovers
	// them: scanning u ascending, counting each edge from its
	// smaller-label side (u < v side for equal labels).
	for u := 0; u < g.VertexCount(); u++ {
		for _, e := range g.Adj[u] {
			lu, lv := g.Labels[u], g.Labels[e.To]
			if lu > lv || (lu == lv && u > e.To) {
				continue
			}
			t := Triple{LA: lu, LE: e.Label, LB: lv}
			ix.occs[t] = append(ix.occs[t], extend.EdgeOcc{TID: tid, U: u, V: e.To})
		}
	}
}

// Len returns the number of indexed transactions.
func (ix *FeatureIndex) Len() int { return len(ix.db) }

// LabelFreq returns the database-wide occurrence count of a vertex label.
func (ix *FeatureIndex) LabelFreq(label int) int { return ix.labelFreq[label] }

// TripleTIDs returns the TID bitset of the normalized triple (la, le,
// lb), or nil if the triple occurs nowhere. The returned set is shared —
// callers must not mutate it.
func (ix *FeatureIndex) TripleTIDs(la, le, lb int) *pattern.TIDSet {
	return ix.tripleTIDs[MakeTriple(la, le, lb)]
}

// LabelTIDs returns the TID bitset of a vertex label (shared; do not
// mutate), or nil if the label occurs nowhere.
func (ix *FeatureIndex) LabelTIDs(label int) *pattern.TIDSet {
	return ix.labelTIDs[label]
}

// Sig returns transaction tid's signature (shared; do not mutate).
func (ix *FeatureIndex) Sig(tid int) *Signature { return ix.sigs[tid] }

// SigDominates reports whether transaction tid's signature dominates the
// pattern signature p — a necessary condition for containment.
func (ix *FeatureIndex) SigDominates(tid int, p *Signature) bool {
	return ix.sigs[tid].Dominates(p)
}

// Lister returns transaction tid's label → vertex posting lists for
// indexed VF2 root-candidate selection.
func (ix *FeatureIndex) Lister(tid int) isomorph.VertexLister {
	return &ix.posts[tid]
}

// NewMatcher prepares a matcher for p with the rarest-label-first root
// choice: the match order starts at the vertex whose label is globally
// rarest, so the posted root scan enumerates the fewest candidates.
func (ix *FeatureIndex) NewMatcher(p *graph.Graph) *isomorph.Matcher {
	return isomorph.NewMatcherRanked(p, ix.LabelFreq)
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

// Seeds returns the occurrence lists of every triple whose TID support
// reaches minSup, sorted by triple — ready for
// extend.Extender.InitialSeeds. Infrequent triples never surface, so
// miners skip allocating their embeddings entirely.
func (ix *FeatureIndex) Seeds(minSup int) []extend.Seed1 {
	var out []extend.Seed1
	for t, occ := range ix.occs {
		if ix.tripleTIDs[t].Count() < minSup {
			continue
		}
		out = append(out, extend.Seed1{LI: t.LA, LE: t.LE, LJ: t.LB, Occ: occ})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LI != b.LI {
			return a.LI < b.LI
		}
		if a.LE != b.LE {
			return a.LE < b.LE
		}
		return a.LJ < b.LJ
	})
	return out
}

// NarrowByFeatures intersects into with the TID bitsets of every distinct
// vertex label and edge triple of g (supporters of g must contain each of
// its labels and triples). A nil into starts from the full TID universe.
// It returns the narrowed set, or nil as soon as some label or triple of
// g occurs nowhere in the database (empty intersection).
func (ix *FeatureIndex) NarrowByFeatures(g *graph.Graph, into *pattern.TIDSet) *pattern.TIDSet {
	if into == nil {
		into = pattern.FullTIDSet(len(ix.db))
	}
	for v := 0; v < g.VertexCount(); v++ {
		ts := ix.labelTIDs[g.Labels[v]]
		if ts == nil {
			return nil
		}
		into.IntersectWith(ts)
	}
	for u := 0; u < g.VertexCount(); u++ {
		for _, e := range g.Adj[u] {
			if u > e.To {
				continue
			}
			ts := ix.tripleTIDs[MakeTriple(g.Labels[u], e.Label, g.Labels[e.To])]
			if ts == nil {
				return nil
			}
			into.IntersectWith(ts)
		}
	}
	return into
}

// CandidateTIDs returns the transactions that can possibly contain g per
// the inverted indexes (label and triple bitsets intersected). The
// result is always freshly allocated; it is empty when some feature of g
// occurs nowhere.
func (ix *FeatureIndex) CandidateTIDs(g *graph.Graph) *pattern.TIDSet {
	out := ix.NarrowByFeatures(g, nil)
	if out == nil {
		return pattern.NewTIDSet(len(ix.db))
	}
	return out
}

// Support counts the transactions containing p through the full indexed
// path: inverted-index candidate filtering, signature domination, then
// posted VF2 with the rarest-root match order. It returns results
// identical to isomorph.Support (differential tests enforce this).
func (ix *FeatureIndex) Support(p *graph.Graph) int {
	return ix.SupportTIDs(p).Count()
}

// SupportTIDs is Support returning the exact supporting TID bitset.
func (ix *FeatureIndex) SupportTIDs(p *graph.Graph) *pattern.TIDSet {
	out := pattern.NewTIDSet(len(ix.db))
	if p.VertexCount() == 0 {
		return out
	}
	cand := ix.NarrowByFeatures(p, nil)
	if cand == nil {
		return out
	}
	psig := SigOf(p)
	m := ix.NewMatcher(p)
	cand.ForEach(func(tid int) {
		if !ix.sigs[tid].Dominates(psig) {
			return
		}
		if m.ContainsPostedTick(ix.db[tid], &ix.posts[tid], nil) {
			out.Add(tid)
		}
	})
	return out
}

// SupportIn counts support only over the given transaction ids,
// mirroring isomorph.SupportIn with the indexed filters applied.
func (ix *FeatureIndex) SupportIn(p *graph.Graph, tids []int) int {
	if p.VertexCount() == 0 {
		return 0
	}
	psig := SigOf(p)
	m := ix.NewMatcher(p)
	n := 0
	for _, tid := range tids {
		if !ix.sigs[tid].Dominates(psig) {
			continue
		}
		if m.ContainsPostedTick(ix.db[tid], &ix.posts[tid], nil) {
			n++
		}
	}
	return n
}

// Clone returns an independently updatable copy of the index: Update on
// the clone never mutates the original, so a reader holding the original
// (e.g. a published server snapshot) stays consistent while a writer
// patches the clone — the RCU pattern internal/server builds on.
//
// The copy is as shallow as Update's mutation granularity allows:
// TID bitsets and the bookkeeping maps are deep-copied (Update patches
// them bit by bit), while signatures, posting lists, and occurrence
// slices are shared — Update replaces those wholesale per transaction or
// per triple, never in place.
func (ix *FeatureIndex) Clone() *FeatureIndex {
	c := &FeatureIndex{
		db:         append(graph.Database(nil), ix.db...),
		labelTIDs:  make(map[int]*pattern.TIDSet, len(ix.labelTIDs)),
		tripleTIDs: make(map[Triple]*pattern.TIDSet, len(ix.tripleTIDs)),
		occs:       make(map[Triple][]extend.EdgeOcc, len(ix.occs)),
		sigs:       append([]*Signature(nil), ix.sigs...),
		posts:      append([]txPostings(nil), ix.posts...),
		labelFreq:  make(map[int]int, len(ix.labelFreq)),
	}
	for l, ts := range ix.labelTIDs {
		c.labelTIDs[l] = ts.Clone()
	}
	for t, ts := range ix.tripleTIDs {
		c.tripleTIDs[t] = ts.Clone()
	}
	for t, occ := range ix.occs {
		c.occs[t] = occ
	}
	for l, n := range ix.labelFreq {
		c.labelFreq[l] = n
	}
	return c
}

// Update re-indexes the transactions listed in updatedTIDs against newDB
// (same length and transaction order as the indexed database; only the
// listed graphs may differ). Everything about unchanged transactions is
// reused; the inverted maps and occurrence lists are patched in place.
// Update must not race with concurrent readers.
func (ix *FeatureIndex) Update(newDB graph.Database, updatedTIDs []int) {
	updated := make([]int, len(updatedTIDs))
	copy(updated, updatedTIDs)
	sort.Ints(updated)

	// Retire the updated transactions' old contributions.
	affected := make(map[Triple]bool)
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
			affected[tc.t] = true
			if ts := ix.tripleTIDs[tc.t]; ts != nil {
				ts.Remove(tid)
			}
		}
	}

	// Recompute the per-transaction invariants and re-add label/triple
	// bits from the new graphs.
	isUpdated := make(map[int]bool, len(updated))
	ix.db = newDB
	for _, tid := range updated {
		isUpdated[tid] = true
		sig := SigOf(newDB[tid])
		ix.sigs[tid] = sig
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
			affected[tc.t] = true
			ts, ok := ix.tripleTIDs[tc.t]
			if !ok {
				ts = pattern.NewTIDSet(len(newDB))
				ix.tripleTIDs[tc.t] = ts
			}
			ts.Add(tid)
		}
	}

	// Rebuild the occurrence lists of affected triples: keep unchanged
	// transactions' entries, splice the updated transactions' fresh
	// occurrences back in TID order.
	fresh := make(map[Triple][]extend.EdgeOcc)
	for _, tid := range updated {
		g := newDB[tid]
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				lu, lv := g.Labels[u], g.Labels[e.To]
				if lu > lv || (lu == lv && u > e.To) {
					continue
				}
				t := Triple{LA: lu, LE: e.Label, LB: lv}
				fresh[t] = append(fresh[t], extend.EdgeOcc{TID: tid, U: u, V: e.To})
			}
		}
	}
	for t := range affected {
		old := ix.occs[t]
		add := fresh[t] // sorted by TID: updated was sorted, scan is in order
		merged := make([]extend.EdgeOcc, 0, len(old)+len(add))
		i := 0
		for _, o := range old {
			if isUpdated[o.TID] {
				continue // retired entry
			}
			for i < len(add) && add[i].TID < o.TID {
				merged = append(merged, add[i])
				i++
			}
			merged = append(merged, o)
		}
		merged = append(merged, add[i:]...)
		if len(merged) == 0 {
			delete(ix.occs, t)
			if ts := ix.tripleTIDs[t]; ts != nil && ts.Count() == 0 {
				delete(ix.tripleTIDs, t)
			}
			continue
		}
		ix.occs[t] = merged
	}
}
