// Package decomp mines large frequent patterns — beyond the
// edge-at-a-time growth envelope — by decomposition: a candidate is
// covered by overlapping small sub-patterns drawn from the already-mined
// set, the intersection of the pieces' exact TID sets bounds the
// candidate's support from above (any supporter of the candidate
// supports every piece), and only candidates whose bound clears minSup
// are verified transaction-by-transaction with a compiled matching plan.
//
// The approximate-then-verify split is what makes the large-pattern
// region reachable: edge-growth miners re-enumerate embeddings at every
// extension, and embedding multiplicity is combinatorial in pattern
// symmetry, while here the approximate phase is pure bitset arithmetic
// (one fused multi-way intersect+popcount per candidate) and the exact
// phase runs one first-match plan per surviving transaction with early
// exit as soon as the remaining transactions cannot reach minSup.
//
// Soundness of the two prunes rests on one invariant the caller must
// guarantee: the mined set handed to the Decomposer is COMPLETE up to
// the piece size — every frequent connected pattern of at most PieceMax
// edges is present. Then a cover piece missing from the set is
// infrequent, so the candidate is infrequent (cover prune); and a piece
// intersection below minSup bounds the candidate below minSup (upper-
// bound prune). Reported patterns are never approximate: every one has
// been verified with exact per-transaction matching.
package decomp

import (
	"context"
	"sort"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/pattern"
	"partminer/internal/plan"
)

// DefaultPieceMax is the cover piece size when Options.PieceMax is 0.
// Small pieces keep cover construction and canonicalization cheap while
// the overlap between pieces keeps the intersection bound tight.
const DefaultPieceMax = 4

// Options configures one decomposition mining run.
type Options struct {
	// MinSupport is the absolute support threshold; values below 1 are
	// treated as 1.
	MinSupport int
	// Envelope is the size (in edges) up to which the base set is
	// complete — the classic miner's reach. Mining continues from there.
	Envelope int
	// MaxEdges is the largest pattern size to mine; it must exceed
	// Envelope for the run to do anything.
	MaxEdges int
	// PieceMax bounds cover piece size; 0 means DefaultPieceMax. It is
	// clamped to Envelope, the completeness horizon of the base set.
	PieceMax int
	// Observer, when non-nil, receives the run's counters under the
	// "decomp." namespace.
	Observer exec.Observer
}

func (o *Options) normalize() {
	if o.MinSupport < 1 {
		o.MinSupport = 1
	}
	if o.PieceMax <= 0 {
		o.PieceMax = DefaultPieceMax
	}
	if o.PieceMax > o.Envelope {
		o.PieceMax = o.Envelope
	}
}

// Stats counts the work of a decomposition run. The ratio
// Pieces/Candidates is the mean cover size.
type Stats struct {
	// Candidates counts distinct canonical candidates generated.
	Candidates int64
	// Pieces counts cover pieces across all covered candidates.
	Pieces int64
	// CoverPruned counts candidates killed because a cover piece is
	// absent from the mined set (hence infrequent).
	CoverPruned int64
	// UBPruned counts candidates killed by the fused TID-intersection
	// upper bound before any matching.
	UBPruned int64
	// Verified counts candidates that reached exact verification.
	Verified int64
	// EarlyExit counts verifications abandoned once the running bound
	// (matches so far + transactions left) dropped below minSup.
	EarlyExit int64
	// PlanMatches counts per-transaction plan matches executed.
	PlanMatches int64
	// Frequent counts verified candidates that met minSup.
	Frequent int64
}

// Counters exports the stats as observer-style named counters — the
// vocabulary partminer -statsjson and partserved /v1/stats surface.
func (s *Stats) Counters() map[string]int64 {
	return map[string]int64{
		"decomp.candidates":   s.Candidates,
		"decomp.pieces":       s.Pieces,
		"decomp.cover_pruned": s.CoverPruned,
		"decomp.ub_pruned":    s.UBPruned,
		"decomp.verified":     s.Verified,
		"decomp.early_exit":   s.EarlyExit,
		"decomp.plan_matches": s.PlanMatches,
		"decomp.frequent":     s.Frequent,
	}
}

// Add accumulates o into s (for aggregating across runs).
func (s *Stats) Add(o *Stats) {
	s.Candidates += o.Candidates
	s.Pieces += o.Pieces
	s.CoverPruned += o.CoverPruned
	s.UBPruned += o.UBPruned
	s.Verified += o.Verified
	s.EarlyExit += o.EarlyExit
	s.PlanMatches += o.PlanMatches
	s.Frequent += o.Frequent
}

// Decomposer covers candidate graphs with connected pieces of at most
// pieceMax edges and resolves each piece's exact TID set in a mined
// pattern set. It is immutable after construction and safe for
// concurrent use.
type Decomposer struct {
	pieceMax int
	mined    pattern.Set
}

// NewDecomposer builds a Decomposer over mined, which must be complete
// up to pieceMax edges (every frequent connected pattern of that size or
// smaller is present) for the cover prune to be sound.
func NewDecomposer(mined pattern.Set, pieceMax int) *Decomposer {
	if pieceMax < 1 {
		pieceMax = 1
	}
	return &Decomposer{pieceMax: pieceMax, mined: mined}
}

// Cover greedily covers every edge of g with connected pieces of at most
// pieceMax edges, canonicalizes each piece, and returns the mined TID
// set of every piece (pieces mined without TIDs contribute only their
// presence). A non-empty missing is the canonical key of a piece absent
// from the mined set: given completeness, that piece — and therefore g —
// is infrequent, and the caller should prune g outright. npieces is the
// cover size.
func (d *Decomposer) Cover(g *graph.Graph) (tids []*pattern.TIDSet, npieces int, missing string) {
	n := g.VertexCount()
	covered := make(map[[2]int]bool, g.EdgeCount())
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u > e.To || covered[edgeKey(u, e.To)] {
				continue
			}
			npieces++
			p, key := d.piece(g, u, e.To, covered)
			if p == nil {
				return nil, npieces, key
			}
			if p.TIDs != nil {
				tids = append(tids, p.TIDs)
			}
		}
	}
	return tids, npieces, ""
}

// CoverEdge is Cover cut down to the one piece grown from edge (u, v) of
// g, for a g that is a known-frequent pattern plus that edge: a piece
// avoiding the edge lies inside the frequent pattern, so it is mined and
// its TID set holds every supporter of that pattern — it can neither be
// missing nor tighten a bound that already starts from those supporters.
// tids is empty when the piece was mined without TIDs.
func (d *Decomposer) CoverEdge(g *graph.Graph, u, v int) (tids []*pattern.TIDSet, missing string) {
	p, key := d.piece(g, u, v, make(map[[2]int]bool, d.pieceMax))
	if p == nil {
		return nil, key
	}
	if p.TIDs != nil {
		tids = append(tids, p.TIDs)
	}
	return tids, ""
}

// piece grows the cover piece seeded at edge (u, v) and resolves it in
// the mined set: the mined pattern, or nil and the piece's canonical key
// when it is absent.
func (d *Decomposer) piece(g *graph.Graph, u, v int, covered map[[2]int]bool) (*pattern.Pattern, string) {
	key := dfscode.MinCode(d.growPiece(g, u, v, covered)).Key()
	if p, found := d.mined[key]; found {
		return p, ""
	}
	return nil, key
}

// edgeKey identifies the undirected edge (u, v) in a covered-edge map.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// growPiece grows one connected piece from seed edge (su, sv): a BFS
// over edges incident to the piece's vertex set, preferring edges not
// yet covered by an earlier piece so the cover stays small, up to
// pieceMax edges. Every edge absorbed is marked covered. The returned
// graph is the piece re-numbered to its own compact vertex space.
func (d *Decomposer) growPiece(g *graph.Graph, su, sv int, covered map[[2]int]bool) *graph.Graph {
	type edge struct{ u, v, label int }
	inPiece := map[int]bool{su: true, sv: true}
	order := []int{su, sv}
	label0, _ := g.EdgeLabel(su, sv)
	edges := []edge{{su, sv, label0}}
	covered[edgeKey(su, sv)] = true
	inEdges := map[[2]int]bool{edgeKey(su, sv): true}

	// Two passes over the piece's frontier: absorb uncovered edges
	// first (they shrink future work), then — only if the piece is
	// still below pieceMax — covered ones, which cost nothing extra and
	// tighten the piece's TID bound by making it more specific.
	for pass := 0; pass < 2 && len(edges) < d.pieceMax; pass++ {
		for qi := 0; qi < len(order) && len(edges) < d.pieceMax; qi++ {
			u := order[qi]
			for _, e := range g.Adj[u] {
				if len(edges) >= d.pieceMax {
					break
				}
				k := edgeKey(u, e.To)
				if inEdges[k] {
					continue
				}
				if pass == 0 && covered[k] {
					continue
				}
				inEdges[k] = true
				covered[k] = true
				edges = append(edges, edge{u, e.To, e.Label})
				if !inPiece[e.To] {
					inPiece[e.To] = true
					order = append(order, e.To)
				}
			}
		}
	}

	remap := make(map[int]int, len(order))
	sub := graph.New(0)
	for _, v := range order {
		remap[v] = sub.AddVertex(g.Labels[v])
	}
	for _, e := range edges {
		sub.MustAddEdge(remap[e.u], remap[e.v], e.label)
	}
	return sub
}

// tripleExt is one frequent edge triple usable as an extension: its edge
// label, the label of the far endpoint (for pendant growth), and the
// triple's exact supporting transactions.
type tripleExt struct {
	le, other int
	tids      *pattern.TIDSet
}

// tripleIndex indexes the frequent 1-edge patterns for extension
// generation: connect[{la,lb}] lists edges joinable between existing
// vertices labelled la and lb, pendant[l] lists edges that can hang a
// new vertex off an existing vertex labelled l.
type tripleIndex struct {
	connect map[[2]int][]tripleExt
	pendant map[int][]tripleExt
}

func buildTriples(edges pattern.Set) tripleIndex {
	ti := tripleIndex{
		connect: make(map[[2]int][]tripleExt),
		pendant: make(map[int][]tripleExt),
	}
	for _, p := range edges {
		if p.Size() != 1 {
			continue
		}
		e := p.Code[0]
		la, le, lb := e.LI, e.LE, e.LJ
		if la > lb {
			la, lb = lb, la
		}
		ti.connect[[2]int{la, lb}] = append(ti.connect[[2]int{la, lb}], tripleExt{le: le, tids: p.TIDs})
		ti.pendant[la] = append(ti.pendant[la], tripleExt{le: le, other: lb, tids: p.TIDs})
		if lb != la {
			ti.pendant[lb] = append(ti.pendant[lb], tripleExt{le: le, other: la, tids: p.TIDs})
		}
	}
	return ti
}

// extensions returns every graph obtained from g by adding one edge
// whose label triple is frequent and whose triple-TID intersection with
// qTIDs (the parent pattern's supporters) reaches minSup: either an
// edge between two existing non-adjacent vertices or a pendant edge to
// a new vertex. This mirrors the merge-join's extension generation and
// is complete for the same reason: a frequent (k+1)-pattern minus a
// spanning-tree leaf edge is a connected frequent k-pattern.
func extensions(g *graph.Graph, ti tripleIndex, qTIDs *pattern.TIDSet, minSup int) []*graph.Graph {
	feasible := func(t tripleExt) bool {
		return qTIDs == nil || t.tids == nil || qTIDs.IntersectCount(t.tids) >= minSup
	}
	var out []*graph.Graph
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
				out = append(out, ng)
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
			out = append(out, ng)
		}
	}
	return out
}

// Mine is MineContext with a background context.
func Mine(fx *index.FeatureIndex, base pattern.Set, opts Options) (pattern.Set, *Stats) {
	out, st, _ := MineContext(context.Background(), fx, base, opts)
	return out, st
}

// MineContext grows the frequent-pattern set from opts.Envelope to
// opts.MaxEdges edges by decomposition over the complete base set. It
// returns only the newly mined patterns (sizes Envelope+1..MaxEdges),
// each with exact support and TID set. base must be complete up to
// Envelope with exact TIDs (a finished classic mine of the same
// database fx indexes). Serial and deterministic: candidates are
// processed in canonical-key order.
func MineContext(ctx context.Context, fx *index.FeatureIndex, base pattern.Set, opts Options) (pattern.Set, *Stats, error) {
	opts.normalize()
	st := &Stats{}
	out := make(pattern.Set)
	if opts.Envelope < 1 || opts.MaxEdges <= opts.Envelope {
		return out, st, nil
	}
	tick := exec.NewTicker(ctx)
	minSup := opts.MinSupport
	dec := NewDecomposer(base, opts.PieceMax)
	triples := buildTriples(base)

	frontier := sizedSorted(base, opts.Envelope)
	for k := opts.Envelope; k < opts.MaxEdges && len(frontier) > 0; k++ {
		if err := tick.Err(); err != nil {
			return nil, st, err
		}
		seen := make(map[string]bool)
		var next []*pattern.Pattern
		for _, q := range frontier {
			for _, cg := range extensions(q.Code.Graph(), triples, q.TIDs, minSup) {
				if tick.Hit() {
					return nil, st, tick.Err()
				}
				code := dfscode.MinCodeTick(cg, tick)
				key := code.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if _, dup := base[key]; dup {
					continue // caller handed down a base wider than Envelope
				}
				st.Candidates++
				p, err := checkCandidate(fx, dec, cg, code, q, minSup, st, tick)
				if err != nil {
					return nil, st, err
				}
				if p != nil {
					st.Frequent++
					out[key] = p
					next = append(next, p)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Code.Compare(next[j].Code) < 0 })
		frontier = next
	}
	if err := tick.Err(); err != nil {
		return nil, st, err
	}
	report(opts.Observer, st)
	return out, st, nil
}

// checkCandidate runs the decomposition filter chain on one candidate:
// feature narrowing, cover prune, fused upper bound, then exact planned
// verification with early exit. It returns the verified pattern or nil.
func checkCandidate(fx *index.FeatureIndex, dec *Decomposer, cg *graph.Graph, code dfscode.Code, parent *pattern.Pattern, minSup int, st *Stats, tick *exec.Ticker) (*pattern.Pattern, error) {
	// (1) The inverted label/triple index bounds support by the
	// candidate's own features — cheapest filter first.
	narrowed := fx.NarrowByFeatures(cg, nil)
	if narrowed == nil {
		narrowed = pattern.FullTIDSet(fx.Len())
	}
	// (2) Cover by mined pieces: a missing piece is infrequent, so the
	// candidate cannot be frequent.
	pieces, np, missing := dec.Cover(cg)
	st.Pieces += int64(np)
	if missing != "" {
		st.CoverPruned++
		return nil, nil
	}
	// (3) Fused k-way upper bound: supporters of the candidate support
	// the parent and every piece, so one intersect+popcount pass over
	// all those TID sets bounds the support without touching a single
	// transaction.
	operands := make([]*pattern.TIDSet, 0, len(pieces)+2)
	operands = append(operands, narrowed)
	if parent.TIDs != nil {
		operands = append(operands, parent.TIDs)
	}
	operands = append(operands, pieces...)
	if pattern.IntersectCountMulti(operands) < minSup {
		st.UBPruned++
		return nil, nil
	}
	// Materialize the surviving intersection (narrowed is owned here).
	inter := narrowed
	for _, o := range operands[1:] {
		inter.IntersectWith(o)
	}
	// (4) Exact verification: a compiled first-match plan per candidate
	// (selectivity-ordered, symmetry-broken), one match per surviving
	// transaction, abandoning the loop as soon as even full success on
	// the remaining transactions cannot reach minSup.
	st.Verified++
	pl := plan.Compile(cg, fx)
	tids := pattern.NewTIDSet(fx.Len())
	support := 0
	remaining := inter.Count()
	cancelled := false
	complete := inter.ForEachUntil(func(tid int) bool {
		if support+remaining < minSup {
			st.EarlyExit++
			return false
		}
		if tick.Hit() {
			cancelled = true
			return false
		}
		remaining--
		st.PlanMatches++
		if matchTID(pl, fx, cg, tid) {
			tids.Add(tid)
			support++
		}
		return true
	})
	if cancelled {
		return nil, tick.Err()
	}
	_ = complete
	if support < minSup {
		return nil, nil
	}
	return &pattern.Pattern{Code: code.Clone(), Support: support, TIDs: tids}, nil
}

// matchTID tests one transaction: the compiled plan when available, the
// generic index-posted VF2 matcher as fallback.
func matchTID(pl *plan.Plan, fx *index.FeatureIndex, cg *graph.Graph, tid int) bool {
	if pl != nil {
		return pl.MatchIn(fx, tid)
	}
	return fx.ContainsIn(fx.NewMatcher(cg), index.SigOf(cg), tid)
}

// sizedSorted returns the k-edge patterns of set in canonical order.
func sizedSorted(set pattern.Set, k int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, p := range set {
		if p.Size() == k {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code.Compare(out[j].Code) < 0 })
	return out
}

func report(o exec.Observer, st *Stats) {
	if o == nil {
		return
	}
	for name, v := range st.Counters() {
		exec.Count(o, name, v)
	}
}
