// Package mergejoin implements the paper's merge-join operation (§4.3,
// Fig. 11 Procedure MergeJoin): recovering the complete set of frequent
// subgraphs of a dataset S, level by level on pattern size, from frequent
// sets mined (at reduced support) in partitions of S. core hands it the
// union of all K unit sets and merges once, at the root; the paper merges
// two partitions at a time up the partition tree.
//
// Candidates are generated by extension: every frequent k-pattern of S is
// extended by one edge whose label triple is frequent, followed by full
// Apriori pruning. This is provably complete: any frequent (k+1)-pattern
// minus a spanning-tree leaf edge is a connected frequent k-pattern. (The
// paper's literal pairwise joins C1/C2/C3 are not: EXPERIMENTS.md records
// the patterns they miss.)
//
// The first links of the filter chain run before an extension q + e is
// built. In a fold, the old border is probed first, on the extension's
// key: q's canonical key plus the added edge, named without
// canonicalising q + e. Then, from three edges on, the two-edge path
// filter: every 2-edge path {e, f} through the added edge must be a
// frequent 2-edge pattern, and q's supporters ∩ e's triple's ∩ the
// paths' must still reach the threshold. This is anti-monotonicity: the
// result is complete at two edges by then, and every supporter of q + e
// supports each {e, f}. An extension either link drops is never built or
// canonicalised and is not a candidate. A fold records each such drop
// under the extension key, so the next fold's probe finds it; a mine
// records none.
//
// Candidates are verified against S with exact support counting; unit
// patterns contribute their supporting transactions as pre-verified
// occurrences (a pattern contained in a partition piece is contained in
// the original graph), so isomorphism tests run only on the residual
// transactions in the candidates' Apriori TID intersection.
//
// Extension needs no unit input to be complete, which is what a
// growth envelope (core.Options.GrowthEnvelope) relies on: the units stop
// at E edges and the merge keeps levelling past E on extension
// candidates alone, through the same filter chain. It is also why one
// merge over S suffices however many partitions fed it.
//
// A fold (Config.Old/Updated) does only the work its updated graphs can
// change. At each level an old pattern whose old supporters miss every
// updated graph, and whose edge triples no updated graph holds all of in
// the patched index, is unchanged: the result keeps its *Pattern by
// pointer (Stats.Shared), and it is no candidate. No extension is
// generated from a pattern no updated graph supports, since none could
// newly become frequent. The other old patterns are re-checked, their
// unchanged supporters carried over untested.
//
// Every merge also records its negative border (Border, the paper's prune
// set P): for each rejected candidate, the infrequent subpattern or the
// sub-threshold TID bound that rejected it — and, in a fold, for each
// extension dropped at generation. An incremental merge
// (Config.Old/Updated/OldBorder) rejects such a candidate or extension
// again from its entry alone while the entry still holds against the
// update.
package mergejoin

import (
	"context"
	"time"

	"partminer/internal/decomp"
	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/obs"
	"partminer/internal/pattern"
)

// Config controls one merge-join.
type Config struct {
	// MinSupport is the absolute support threshold applied against S.
	MinSupport int
	// MaxEdges bounds recovered pattern size; 0 means unbounded.
	MaxEdges int

	// Old and Updated switch Merge into IncMergeJoin mode (Fig. 12): Old
	// is the pre-update frequent set of the same dataset (with exact
	// TIDs) and Updated marks the transactions whose graphs changed.
	// Supporters of an old pattern among unchanged transactions carry
	// over without isomorphism tests; only updated transactions are
	// rechecked. Patterns absent from Old (the potential IF set) are
	// verified in full.
	Old     pattern.Set
	Updated *pattern.TIDSet
	// OldBorder is the negative border the previous merge of this dataset
	// recorded (nil when none survives, e.g. after a snapshot restore).
	// It holds two kinds of key (see Border). In IncMergeJoin mode an
	// extension is probed on its extension key before it is built, and a
	// candidate on its canonical key unless it is in Old; either is
	// pruned when its entry still holds against the updated database,
	// and otherwise goes on through the filter chain. Read-only.
	OldBorder Border

	// Border, when non-nil, is filled with this merge's negative border:
	// one entry per rejected candidate under its canonical key, plus — in
	// IncMergeJoin mode — one per extension rejected at generation under
	// its extension key, and the OldBorder entries nothing met. Extension
	// keys are valid only within one process: a border that is persisted
	// must be written under canonical keys.
	Border Border

	// Index, when non-nil, is the feature index of the dataset S being
	// merged against (it must have been built over the same database).
	// When nil, MergeContext builds one before the first level:
	// the index supplies exact 1-edge supports, narrows candidate TID
	// sets by the candidates' own label/triple bitsets, and filters
	// isomorphism tests by signature domination.
	Index *index.FeatureIndex

	// SubKeys, when non-nil, is the sub-pattern key memo this merge shares
	// with the other merges of its chain of folds; nil gives the merge a
	// private one.
	SubKeys *SubKeys

	// Observer, when non-nil, receives the merge's work counters
	// (candidates, prunes, isomorphism tests, ...).
	Observer exec.Observer

	// Stats, when non-nil, accumulates counters about the merge.
	Stats *Stats
}

// Stats describes how much work one or more merges performed.
type Stats struct {
	// Candidates counts distinct candidates entering verification.
	Candidates int64
	// UnitSeeded counts candidates that arrived from unit results with
	// pre-verified supporters.
	UnitSeeded int64
	// Pruned counts rejections made before any isomorphism test:
	// candidates eliminated by Apriori pruning or the TID intersection
	// bound, and — in a fold — the extensions the old border rejected at
	// generation. Those are not candidates, so in a fold Pruned may
	// exceed Candidates; they count here because BorderPruned, which
	// holds them, is a subset of Pruned.
	Pruned int64
	// TriplePruned counts candidates eliminated by intersecting their own
	// label/triple TID bitsets (a subset of Pruned), before any
	// subpattern canonicalization. Only candidates without a parent are
	// counted: an extension candidate's bound starts from its parent's
	// supporters ∩ the added triple's, which extension generation already
	// held to the threshold.
	TriplePruned int64
	// DecompPruned counts large candidates eliminated by the
	// decomposition pruner (a subset of Pruned): an edge cover by
	// already-recovered sub-patterns either misses a piece (the piece is
	// infrequent, so the candidate is) or the fused intersection of the
	// pieces' TID sets falls below the threshold. An extension candidate
	// is covered by the one piece grown from its added edge; a candidate
	// without a parent by pieces over all its edges.
	DecompPruned int64
	// SigPruned counts per-transaction isomorphism tests skipped because
	// the transaction's invariant signature does not dominate the
	// candidate's.
	SigPruned int64
	// IsoTests counts subgraph-isomorphism invocations.
	IsoTests int64
	// BorderPruned counts rejections because an entry in the previous
	// merge's negative border still held (incremental mode, a subset of
	// Pruned): extensions at generation, probed on their extension key
	// before the path filter, and candidates in the check, probed on
	// their canonical key ahead of every other filter.
	BorderPruned int64
	// PairPruned counts rejections by the two-edge path filter: a 2-edge
	// path through the added edge is infrequent, or the parent's
	// supporters ∩ the added triple's ∩ the paths' fall below the
	// threshold. It counts (parent, added edge) extensions dropped before
	// their graph is built — not distinct candidates, and not part of
	// Candidates or Pruned. In a fold each leaves a border entry.
	PairPruned int64
	// Shared counts old frequent patterns a fold kept by pointer
	// (incremental mode): no updated graph supported one before, and
	// none holds all of its edge triples now, so it is unchanged. They
	// are no candidates and count in neither Candidates nor Frequent.
	Shared int64
	// CarriedTIDs counts supporters accepted from pre-update results
	// without re-testing (incremental mode): the unchanged supporters of
	// every re-verified old pattern, and all supporters of every shared
	// one.
	CarriedTIDs int64
	// Frequent counts candidates that passed verification.
	Frequent int64
}

// Counters exports the stats as observer-style named counters, under the
// same "merge." names MergeContext reports to its Observer — the single
// vocabulary the renderings of obs.Registry (partminer -phases/-statsjson,
// partserved /v1/stats and /metrics) show these numbers under.
func (s *Stats) Counters() map[string]int64 {
	return map[string]int64{
		"merge.candidates":    s.Candidates,
		"merge.unit_seeded":   s.UnitSeeded,
		"merge.pruned":        s.Pruned,
		"merge.triple_pruned": s.TriplePruned,
		"merge.decomp_pruned": s.DecompPruned,
		"merge.border_pruned": s.BorderPruned,
		"merge.pair_pruned":   s.PairPruned,
		"merge.sig_pruned":    s.SigPruned,
		"merge.iso_tests":     s.IsoTests,
		"merge.shared":        s.Shared,
		"merge.carried_tids":  s.CarriedTIDs,
		"merge.frequent":      s.Frequent,
	}
}

func (s *Stats) add(o *Stats) {
	s.Candidates += o.Candidates
	s.UnitSeeded += o.UnitSeeded
	s.Pruned += o.Pruned
	s.TriplePruned += o.TriplePruned
	s.DecompPruned += o.DecompPruned
	s.BorderPruned += o.BorderPruned
	s.PairPruned += o.PairPruned
	s.SigPruned += o.SigPruned
	s.IsoTests += o.IsoTests
	s.Shared += o.Shared
	s.CarriedTIDs += o.CarriedTIDs
	s.Frequent += o.Frequent
}

// decompMinEdges is the candidate size (in edges) at which the
// decomposition pruner engages during verification: below it the
// one-edge-removed Apriori chain already covers the candidate, and the
// piece dictionary (sizes up to decomp.DefaultPieceMax) needs the
// preceding levels recovered first.
const decompMinEdges = decomp.DefaultPieceMax + 1

func (c Config) minSup() int {
	if c.MinSupport < 1 {
		return 1
	}
	return c.MinSupport
}

// MergeContext recovers the frequent subgraphs of s given frequent sets p0
// and p1 mined (at reduced support) from partition databases whose entry
// i is a piece of s[i]: two partitions, or, with p1 nil, the union of any
// number of them. Transaction ids in p0/p1 must refer to the shared index
// space.
//
// Candidate generation and verification check ctx (amortized) and abort
// promptly once it is cancelled, returning ctx.Err(). Only a nil error
// guarantees a complete recovery; on cancellation the returned set is
// nil and cfg.Border holds a meaningless part of the border.
func MergeContext(ctx context.Context, s graph.Database, p0, p1 pattern.Set, cfg Config) (pattern.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// When the run is traced, fold the active span into the reporting
	// fan-out so this merge's stage timings and counters land on the
	// span core opened for it (spans implement exec.Observer).
	if sp := obs.SpanFrom(ctx); sp != nil {
		cfg.Observer = exec.Multi(cfg.Observer, sp)
	}
	tick := exec.NewTicker(ctx)
	minSup := cfg.minSup()
	result := make(pattern.Set, len(cfg.Old))
	incremental := cfg.Old != nil && cfg.Updated != nil
	if cfg.Border == nil {
		cfg.Border = make(Border)
	}
	if cfg.SubKeys == nil {
		cfg.SubKeys = NewSubKeys()
	}

	// The feature index fronts every frequency decision of the merge;
	// build it here when the caller did not hand one down.
	if cfg.Index == nil {
		ix, err := index.BuildContext(ctx, s, cfg.Observer)
		if err != nil {
			return nil, err
		}
		cfg.Index = ix
	}

	by0, by1, byOld := bySize(p0), bySize(p1), bySize(cfg.Old)
	sized := func(by [][]keyed, k int) []keyed {
		if k < len(by) {
			return by[k]
		}
		return nil
	}

	// Level 1 (Fig. 11 line 1): exact frequent 1-edge patterns of S,
	// read straight off the inverted triple index (one bitset count per
	// distinct triple — no database scan, no isomorphism). Unit supports
	// undercount S (an edge pattern may be sub-threshold in one unit),
	// so the index is authoritative.
	cur := cfg.Index.FrequentEdges(minSup)
	for k, p := range cur {
		result[k] = p
	}
	// The frequent 1-edge patterns are the extension alphabet of every
	// level; from level 2 on, the frequent 2-edge paths filter what the
	// alphabet extends (pathTable). In a fold the old border sees each
	// extension first, on its extension key.
	gen := &generator{triples: edgeTriples(cur), minSup: minSup, fold: incremental, result: result,
		updated: cfg.Updated, oldBorder: cfg.OldBorder, border: cfg.Border, blockers: make(map[pathKey]string)}
	shr := &sharer{ix: cfg.Index, updated: cfg.Updated}

	for k := 1; len(cur) > 0 && (cfg.MaxEdges == 0 || k < cfg.MaxEdges); k++ {
		if err := tick.Err(); err != nil {
			return nil, err
		}
		if k == 2 {
			gen.paths = pathTableOf(cur)
		}
		gen.st = Stats{}
		cands := make(map[string]*candidate)

		// In a fold, an old pattern that no updated graph held before or
		// can hold now is unchanged: it joins the level as it is, by
		// pointer, and is no candidate.
		var shared pattern.Set
		if incremental {
			shared = make(pattern.Set)
			for _, o := range sized(byOld, k+1) {
				if shr.unchanged(o.p) {
					shared[o.key] = o.p
					gen.st.Shared++
					gen.st.CarriedTIDs += int64(o.p.Support)
				}
			}
		}

		// Unit patterns of size k+1 enter the pool with their unit TIDs as
		// pre-verified supporters (Fig. 11 line 8: Pᵏ(S0) ∪ Pᵏ(S1) join
		// the merged level directly).
		for _, u := range sized(by0, k+1) {
			addUnitCandidate(cands, shared, u, len(s))
		}
		for _, u := range sized(by1, k+1) {
			addUnitCandidate(cands, shared, u, len(s))
		}

		for qKey, q := range cur {
			if tick.Hit() {
				break
			}
			var qUpd *pattern.TIDSet
			if incremental && q.TIDs != nil {
				// A parent no updated graph supports has no feasible
				// extension in a fold (see extensions).
				if q.TIDs.IntersectCount(cfg.Updated) == 0 {
					continue
				}
				qUpd = q.TIDs.Intersect(cfg.Updated)
			}
			for _, ext := range gen.extensions(q.Code.Graph(), qKey, q.TIDs, qUpd) {
				addExtensionCandidate(cands, shared, ext, qKey, q.TIDs, qUpd, tick)
			}
		}
		if incremental {
			// The updated-overlap filter above only finds patterns that
			// could newly become frequent; previously frequent patterns
			// are re-verified through the cheap carry-over path.
			for _, o := range sized(byOld, k+1) {
				if shared[o.key] == nil {
					seedOldCandidate(cands, o)
				}
			}
		}

		// Apriori pruning + frequency check against S. For large
		// candidates the decomposition cover is a cheaper first cut than
		// per-edge subpattern canonicalization: result is complete for
		// every size mined so far, so pieces of up to DefaultPieceMax edges
		// resolve to exact TID sets (or prove the candidate infrequent
		// outright). Below decompMinEdges the Apriori chain already covers
		// the candidate edge-by-edge.
		var dec *decomp.Decomposer
		if k+1 >= decompMinEdges {
			dec = decomp.NewDecomposer(result, decomp.DefaultPieceMax)
		}
		lv := &level{cur: cur, result: result, minSup: minSup, cfg: cfg, dec: dec, tick: tick}
		next, err := lv.verifyAll(cands, gen.st)
		if err != nil {
			return nil, err
		}
		for key, p := range shared {
			next[key] = p
		}
		for key, p := range next {
			result[key] = p
		}
		cur = next
	}
	if err := tick.Err(); err != nil {
		return nil, err
	}
	if incremental {
		cfg.Border.carry(cfg.OldBorder, result, cfg.Updated, minSup)
	}
	return result, nil
}

// level is the state every candidate check of one merge level shares.
// All of it is read-only while the level verifies, except cfg.Border,
// which verifyAll writes.
type level struct {
	cur    pattern.Set // the frequent k-edge patterns
	result pattern.Set // every frequent pattern of up to k edges
	minSup int
	cfg    Config
	dec    *decomp.Decomposer
	tick   *exec.Ticker
}

// verifyAll checks every candidate against S and returns the frequent
// ones; total holds what generation counted for the level. A
// cancellation observed through tick aborts verification and returns the
// context error.
func (lv *level) verifyAll(cands map[string]*candidate, total Stats) (pattern.Set, error) {
	cfg, tick := lv.cfg, lv.tick
	out := make(pattern.Set)
	total.Candidates = int64(len(cands))
	// Per-candidate verification timing feeds the "merge.verify"
	// histogram/span aggregation. Timed inline (no defer closures) and
	// only with an observer attached, so the uninstrumented path stays
	// allocation-free.
	o := cfg.Observer
	for key, c := range cands {
		if tick.Hit() {
			return nil, tick.Err()
		}
		if c.guaranteed.Count() > 0 {
			total.UnitSeeded++
		}
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		p, why := lv.check(key, c, &total)
		if o != nil {
			o.StageEnd("merge.verify", time.Since(t0))
		}
		if p != nil {
			out[key] = p
			total.Frequent++
		} else {
			cfg.Border[key] = why
		}
	}
	if err := tick.Err(); err != nil {
		return nil, err
	}
	if cfg.Stats != nil {
		cfg.Stats.add(&total)
	}
	reportStats(cfg.Observer, &total)
	return out, nil
}

// reportStats mirrors one merge's counters into the observer under the
// "merge." namespace.
func reportStats(o exec.Observer, st *Stats) {
	if o == nil {
		return
	}
	for name, v := range st.Counters() {
		exec.Count(o, name, v)
	}
}

// candidate is a (k+1)-edge pattern awaiting verification.
type candidate struct {
	g          *graph.Graph
	code       dfscode.Code
	guaranteed *pattern.TIDSet // transactions known to contain the pattern
	// parentKey/addedU/addedV are set for extension candidates:
	// removing edge (addedU, addedV) from g yields the parent pattern
	// with canonical key parentKey, sparing one canonicalization during
	// the Apriori check.
	parentKey      string
	addedU, addedV int
	// parentTIDs and addedTIDs are the parent's supporters and those of
	// the added edge's label triple, set for extension candidates whose
	// parent tracks TIDs. Every supporter of the candidate lies in both,
	// so their intersection is where its bound starts, and the parent
	// being frequent leaves only sub-patterns through the added edge to
	// check.
	parentTIDs, addedTIDs *pattern.TIDSet
	// parentUpd, set in incremental mode, is parentTIDs among the updated
	// transactions: parentUpd ∩ addedTIDs is the updated-side bound a
	// negative-border entry is rechecked with.
	parentUpd *pattern.TIDSet
}

// keyed is a pattern under its canonical key.
type keyed struct {
	key string
	p   *pattern.Pattern
}

// bySize groups set by edge count, each pattern with its map key:
// result[k] holds the k-edge patterns in map order (the candidate pool
// is a map, so nothing reads the order).
func bySize(set pattern.Set) [][]keyed {
	var out [][]keyed
	for key, p := range set {
		for len(out) <= p.Size() {
			out = append(out, nil)
		}
		out[p.Size()] = append(out[p.Size()], keyed{key, p})
	}
	return out
}

// sharer decides, in a fold, which old frequent patterns are unchanged:
// those whose old supporters miss every updated graph and whose edge
// triples no updated graph holds all of, per the patched index. An
// unchanged graph neither gains nor loses a pattern, and an updated graph
// can only contain one if it holds every one of its triples, so such a
// pattern's old TIDs are its new ones.
type sharer struct {
	ix      *index.FeatureIndex
	updated *pattern.TIDSet
	sets    []*pattern.TIDSet // scratch: updated, then one set per edge
}

func (sh *sharer) unchanged(p *pattern.Pattern) bool {
	if p.TIDs == nil || p.TIDs.IntersectCount(sh.updated) > 0 {
		return false
	}
	sh.sets = append(sh.sets[:0], sh.updated)
	for _, e := range p.Code {
		ts := sh.ix.TripleTIDs(index.MakeTriple(e.LI, e.LE, e.LJ))
		if ts == nil {
			return true // no graph holds the triple any more
		}
		sh.sets = append(sh.sets, ts)
	}
	return pattern.IntersectCountMulti(sh.sets) == 0
}

// addUnitCandidate enters a unit pattern into the pool, its unit TIDs
// pre-verified, unless the fold shares its key.
func addUnitCandidate(cands map[string]*candidate, shared pattern.Set, u keyed, n int) {
	key, p := u.key, u.p
	if shared[key] != nil {
		return
	}
	c, ok := cands[key]
	if !ok {
		c = &candidate{g: p.Code.Graph(), code: p.Code.Clone(), guaranteed: pattern.NewTIDSet(n)}
		cands[key] = c
	}
	if p.TIDs != nil {
		c.guaranteed = c.guaranteed.Union(p.TIDs)
	}
}

// seedOldCandidate enters a previously frequent pattern into the candidate
// pool so the incremental check can carry its unchanged supporters over.
func seedOldCandidate(cands map[string]*candidate, o keyed) {
	key, p := o.key, o.p
	if _, ok := cands[key]; ok {
		return
	}
	cands[key] = &candidate{g: p.Code.Graph(), code: p.Code.Clone(), guaranteed: pattern.NewTIDSet(0)}
}

// addExtensionCandidate registers an extension candidate built by
// extensions(): the added edge is by construction the last one inserted
// into ext, so the parent pattern, its supporters and the added-edge
// endpoints travel with the candidate to cheapen its check. The candidate
// keeps ext's own vertex numbering (an isomorphic relabeling of the
// canonical form).
func addExtensionCandidate(cands map[string]*candidate, shared pattern.Set, ext extCandidate, parentKey string, parentTIDs, parentUpd *pattern.TIDSet, tick *exec.Ticker) {
	code := dfscode.MinCodeTick(ext.g, tick)
	key := code.Key()
	if _, ok := cands[key]; ok || shared[key] != nil {
		return // first arrival wins; extension candidates carry no TIDs
	}
	c := &candidate{
		g:          ext.g,
		code:       code,
		guaranteed: pattern.NewTIDSet(0),
		parentKey:  parentKey,
		addedU:     ext.u,
		addedV:     ext.v,
	}
	if parentTIDs != nil && ext.tids != nil {
		c.parentTIDs, c.addedTIDs, c.parentUpd = parentTIDs, ext.tids, parentUpd
	}
	cands[key] = c
}

// check verifies one candidate with a filter chain ordered by
// cost: (1) the candidate's own label/triple TID bitsets from the feature
// index bound its support before any subpattern canonicalization — an
// extension candidate starts instead from its parent's supporters ∩ the
// added triple's, a subset of that narrowing which extension generation
// already held to the threshold; (2) Apriori pruning (every connected
// one-edge-removed subpattern must be frequent) narrows the TID
// intersection further; (3) index.FeatureIndex.Verify walks what is left:
// per transaction, signature domination must hold before an exact
// (posted, rarest-root) VF2 test runs. In incremental
// mode (cfg.Old/cfg.Updated set) the supporters of a previously frequent
// pattern among unchanged transactions carry over without testing, and
// (0) a candidate that is not previously frequent but sits in the
// previous merge's negative border under its canonical key is pruned
// ahead of the whole chain while its entry still holds. (Generation
// already probed the border on the extension key and ran the two-edge
// path filter.) It returns the verified pattern, or nil and the border
// entry saying why the candidate is infrequent.
func (lv *level) check(key string, c *candidate, st *Stats) (*pattern.Pattern, BorderEntry) {
	cur, minSup, cfg, dec, tick := lv.cur, lv.minSup, lv.cfg, lv.dec, lv.tick
	var old *pattern.Pattern
	if cfg.Old != nil && cfg.Updated != nil {
		old = cfg.Old[key]
		if e, ok := cfg.OldBorder[key]; ok && old == nil {
			if e, holds := e.recheck(lv.result, cfg.Updated, updatedSide(cfg.Updated, c.parentUpd, c.addedTIDs), minSup); holds {
				st.BorderPruned++
				st.Pruned++
				return nil, e
			}
		}
	}
	ix := cfg.Index
	var inter *pattern.TIDSet
	if c.parentTIDs != nil {
		// extensions() held this intersection to minSup.
		inter = c.parentTIDs.Intersect(c.addedTIDs)
	} else {
		// Supporters of the candidate contain each of its vertex labels
		// and edge triples, so the inverted-index intersection bounds the
		// support from above — cheap enough to run before the Apriori
		// check, sparing its subpattern canonicalizations when it fails.
		// (MergeContext guarantees the index.)
		inter = ix.CandidateTIDs(c.g)
		if inter.Count() < minSup {
			st.TriplePruned++
			st.Pruned++
			return nil, BorderEntry{Bound: inter}
		}
	}
	if dec != nil {
		// Decomposition pruner for large candidates: cover the candidate
		// with already-recovered pieces. A missing piece proves the
		// candidate infrequent before any subpattern canonicalization;
		// otherwise the fused k-way intersect+popcount over the pieces'
		// exact TID sets (plus the bound above) bounds the support in one
		// pass over the bitset words. With a frequent parent behind the
		// bound, the piece through the added edge is the whole cover.
		var pieces []*pattern.TIDSet
		var missing string
		if c.parentTIDs != nil {
			pieces, missing = dec.CoverEdge(c.g, c.addedU, c.addedV)
		} else {
			pieces, _, missing = dec.Cover(c.g)
		}
		if missing != "" {
			st.DecompPruned++
			st.Pruned++
			return nil, BorderEntry{Blocker: missing}
		}
		if len(pieces) > 0 {
			pruned := pattern.IntersectCountMulti(append(pieces, inter)) < minSup
			// Materialize the intersection: every piece TID set is a
			// superset of the candidate's supporters, so narrowing here
			// spares isomorphism tests below — or is the bound the
			// candidate is rejected on.
			for _, pt := range pieces {
				inter.IntersectWith(pt)
			}
			if pruned {
				st.DecompPruned++
				st.Pruned++
				return nil, BorderEntry{Bound: inter}
			}
		}
	}
	narrow := func(subKey string) bool {
		parent, ok := cur[subKey]
		if !ok {
			st.Pruned++
			return false // a connected subpattern is infrequent: prune
		}
		if parent.TIDs != nil {
			inter.IntersectWith(parent.TIDs)
		}
		return true
	}
	if keys, ok := cfg.SubKeys.Get(key); ok {
		for _, sk := range keys {
			if !narrow(sk) {
				return nil, BorderEntry{Blocker: sk}
			}
		}
	} else {
		// Compute removals interleaved with the membership check so a
		// pruned candidate aborts before canonicalizing every subpattern.
		// The removal of an extension candidate's added edge is its parent
		// pattern, whose key is already known.
		var collected []string
		for u := 0; u < c.g.VertexCount(); u++ {
			for _, e := range c.g.Adj[u] {
				v := e.To
				if u > v {
					continue
				}
				var sk string
				if c.parentKey != "" &&
					((u == c.addedU && v == c.addedV) || (u == c.addedV && v == c.addedU)) {
					sk = c.parentKey
				} else {
					sub := removeEdge(c.g, u, v)
					if sub == nil {
						continue // disconnecting removal: not a constraint
					}
					sk = dfscode.MinCodeTick(sub, tick).Key()
				}
				collected = append(collected, sk)
				if !narrow(sk) {
					return nil, BorderEntry{Blocker: sk}
				}
			}
		}
		if tick.Err() == nil {
			// Never cache keys computed under a fired ticker: an aborted
			// MinCodeTick yields garbage that would outlive this run.
			cfg.SubKeys.Put(key, collected)
		}
	}
	if inter.Count() < minSup {
		// Supporters of the candidate support every subpattern, so the
		// intersection bounds the support from above.
		st.Pruned++
		return nil, BorderEntry{Bound: inter}
	}

	var carried *pattern.TIDSet
	if old != nil && old.TIDs != nil {
		// Unchanged supporters of the old pattern still support it;
		// only updated transactions can gain or lose the pattern.
		carried = old.TIDs.Minus(cfg.Updated)
		st.CarriedTIDs += int64(carried.Count())
		inter.IntersectWith(cfg.Updated)
	}
	// Unit-guaranteed supporters are taken untested; a fired ticker stops
	// the walk early (the partial count is discarded upstream).
	tids, vst := ix.Verify(c.g, inter, c.guaranteed, tick)
	st.SigPruned += vst.SigPruned
	st.IsoTests += vst.IsoTests
	if carried != nil {
		tids.UnionWith(carried)
	}
	support := tids.Count()
	if support < minSup {
		return nil, BorderEntry{Bound: tids}
	}
	return &pattern.Pattern{Code: c.code, Support: support, TIDs: tids}, BorderEntry{}
}
