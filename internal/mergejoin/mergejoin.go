// Package mergejoin implements the paper's merge-join operation (§4.3,
// Fig. 11 Procedure MergeJoin): recovering the complete set of frequent
// subgraphs of a dataset S from the frequent sets mined in its two
// partitions S0 and S1, level by level on pattern size.
//
// Candidate generation has two modes:
//
//   - Extension mode (default): every frequent k-pattern of S is extended
//     by one edge whose label triple is frequent, followed by full Apriori
//     pruning. This is provably complete: any frequent (k+1)-pattern minus
//     a spanning-tree leaf edge is a connected frequent k-pattern.
//   - StrictPaper mode: the paper's pairwise joins, C³ = Join(P²(S0),
//     P²(S1)) and, for k ≥ 3, C1 = Join(Pᵏ(S0), Fᵏ), C2 = Join(Pᵏ(S1),
//     Fᵏ), C3 = Join(Fᵏ, Fᵏ), with the FSG-style shared-(k−1)-core join.
//
// Both modes verify candidates against S with exact support counting; unit
// patterns contribute their supporting transactions as pre-verified
// occurrences (a pattern contained in a partition piece is contained in
// the original graph), so isomorphism tests run only on the residual
// transactions in the candidates' Apriori TID intersection.
//
// Extension mode needs no unit input to be complete, which is what a
// growth envelope (core.Options.GrowthEnvelope) relies on: the units stop
// at E edges and the root merge keeps levelling past E on extension
// candidates alone, through the same filter chain.
//
// Every merge also records its negative border (Border, the paper's prune
// set P): for each rejected candidate, the infrequent subpattern or the
// sub-threshold TID bound that rejected it. An incremental merge
// (Config.Old/Updated/OldBorder) rejects such a candidate again from its
// entry alone while the entry still holds against the update.
package mergejoin

import (
	"context"
	"sync"
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
	// StrictPaper switches candidate generation to the paper's literal
	// C1/C2/C3 pairwise joins instead of extension generation.
	StrictPaper bool

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
	// In IncMergeJoin mode a candidate found in it and not in Old is
	// pruned ahead of the filter chain when its entry still holds against
	// the updated database; otherwise it is verified in full. Read-only.
	OldBorder Border

	// Border, when non-nil, is filled with this merge's negative border:
	// one entry per rejected candidate, plus — in IncMergeJoin mode — the
	// OldBorder entries no candidate met.
	Border Border

	// Index, when non-nil, is the feature index of the dataset S being
	// merged against (it must have been built over the same database).
	// When nil, MergeContext builds one on Pool before the first level:
	// the index supplies exact 1-edge supports, narrows candidate TID
	// sets by the candidates' own label/triple bitsets, and filters
	// isomorphism tests by signature domination.
	Index *index.FeatureIndex

	// Pool, when non-nil, verifies candidates concurrently on the shared
	// execution pool (candidate checks are independent given the previous
	// level's read-only pattern set). The pool is typically owned by the
	// enclosing PartMiner run so the whole run stays inside one
	// concurrency budget; nil verifies serially.
	Pool *exec.Pool

	// SubKeys, when non-nil, is the sub-pattern key memo this merge shares
	// with the other merges of its mining run; nil gives the merge a
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
	// Pruned counts candidates eliminated by Apriori pruning or the TID
	// intersection bound, before any isomorphism test.
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
	// BorderPruned counts candidates eliminated because their entry in the
	// previous merge's negative border still held (a subset of Pruned,
	// incremental mode), ahead of every other filter.
	BorderPruned int64
	// CarriedTIDs counts supporters accepted from pre-update results
	// without re-testing (incremental mode).
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
		"merge.sig_pruned":    s.SigPruned,
		"merge.iso_tests":     s.IsoTests,
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
	s.SigPruned += o.SigPruned
	s.IsoTests += o.IsoTests
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

// Merge recovers the frequent subgraphs of s given the frequent sets p0
// and p1 mined (at reduced support) from the two partition databases whose
// entry i is a piece of s[i]. Transaction ids in p0/p1 must refer to the
// shared index space.
func Merge(s graph.Database, p0, p1 pattern.Set, cfg Config) pattern.Set {
	set, _ := MergeContext(context.Background(), s, p0, p1, cfg)
	return set
}

// MergeContext is Merge with cooperative cancellation: candidate
// generation and verification check ctx (amortized) and abort promptly
// once it is cancelled, returning ctx.Err(). Only a nil error
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
	result := make(pattern.Set)
	incremental := cfg.Old != nil && cfg.Updated != nil
	if cfg.Border == nil {
		cfg.Border = make(Border)
	}
	if cfg.SubKeys == nil {
		cfg.SubKeys = NewSubKeys()
	}

	// The feature index fronts every frequency decision of the merge;
	// build it here (in parallel on the pool) when the caller did not
	// hand one down.
	if cfg.Index == nil {
		ix, err := index.BuildContext(ctx, s, cfg.Pool, cfg.Observer)
		if err != nil {
			return nil, err
		}
		cfg.Index = ix
	}

	by0, by1, byOld := p0.BySize(), p1.BySize(), cfg.Old.BySize()
	sized := func(by [][]*pattern.Pattern, k int) []*pattern.Pattern {
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
	// level.
	triples := edgeTriples(cur)

	// fset tracks Fᵏ — the joined (spanning) patterns — for the paper's
	// join bookkeeping. At level 1 it is empty (the paper starts joins at
	// the 2-edge level).
	fset := make(map[string]bool)

	for k := 1; len(cur) > 0 && (cfg.MaxEdges == 0 || k < cfg.MaxEdges); k++ {
		if err := tick.Err(); err != nil {
			return nil, err
		}
		cands := make(map[string]*candidate)

		// Unit patterns of size k+1 enter the pool with their unit TIDs as
		// pre-verified supporters (Fig. 11 line 8: Pᵏ(S0) ∪ Pᵏ(S1) join
		// the merged level directly).
		for _, p := range sized(by0, k+1) {
			addUnitCandidate(cands, p, len(s))
		}
		for _, p := range sized(by1, k+1) {
			addUnitCandidate(cands, p, len(s))
		}

		if cfg.StrictPaper {
			switch k {
			case 1:
				// Paper line 4: P²(S) = P²(S0) ∪ P²(S1); no join.
			case 2:
				// Paper line 5: C³ = Join(P²(S0), P²(S1)).
				joinSets(cands, sized(by0, 2), sized(by1, 2))
			default:
				var fs, u0, u1 []*pattern.Pattern
				for key := range fset {
					if p, ok := cur[key]; ok {
						fs = append(fs, p)
					}
				}
				for _, p := range sized(by0, k) {
					if q, ok := cur[p.Code.Key()]; ok {
						u0 = append(u0, q)
					}
				}
				for _, p := range sized(by1, k) {
					if q, ok := cur[p.Code.Key()]; ok {
						u1 = append(u1, q)
					}
				}
				joinSets(cands, u0, fs) // C1
				joinSets(cands, u1, fs) // C2
				joinSets(cands, fs, fs) // C3
			}
		} else {
			for _, q := range cur {
				if tick.Hit() {
					break
				}
				var qUpd *pattern.TIDSet
				if incremental && q.TIDs != nil {
					qUpd = q.TIDs.Intersect(cfg.Updated)
				}
				qKey := q.Code.Key()
				for _, ext := range extensions(q.Code.Graph(), triples, q.TIDs, minSup, qUpd) {
					addExtensionCandidate(cands, ext, qKey, q.TIDs, qUpd, tick)
				}
			}
			if incremental {
				// The updated-overlap filter above only finds patterns that
				// could newly become frequent; previously frequent patterns
				// are re-verified through the cheap carry-over path.
				for _, p := range sized(byOld, k+1) {
					seedOldCandidate(cands, p)
				}
			}
		}

		// Apriori pruning + frequency check against S.
		next := make(pattern.Set)
		nextF := make(map[string]bool)
		unitKeys := make(map[string]bool)
		for _, p := range sized(by0, k+1) {
			unitKeys[p.Code.Key()] = true
		}
		for _, p := range sized(by1, k+1) {
			unitKeys[p.Code.Key()] = true
		}
		// For large candidates the decomposition cover is a cheaper first
		// cut than per-edge subpattern canonicalization: result is
		// complete for every size mined so far, so pieces of up to
		// DefaultPieceMax edges resolve to exact TID sets (or prove the
		// candidate infrequent outright). Below decompMinEdges the
		// Apriori chain already covers the candidate edge-by-edge.
		var dec *decomp.Decomposer
		if k+1 >= decompMinEdges {
			dec = decomp.NewDecomposer(result, decomp.DefaultPieceMax)
		}
		lv := &level{s: s, cur: cur, result: result, minSup: minSup, cfg: cfg, dec: dec, tick: tick}
		verified, err := lv.verifyAll(ctx, cands)
		if err != nil {
			return nil, err
		}
		for key, p := range verified {
			next[key] = p
			result[key] = p
			if !unitKeys[key] {
				nextF[key] = true
			}
		}
		cur = next
		fset = nextF
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
// which only verifyAll writes.
type level struct {
	s      graph.Database
	cur    pattern.Set // the frequent k-edge patterns
	result pattern.Set // every frequent pattern of up to k edges
	minSup int
	cfg    Config
	dec    *decomp.Decomposer
	tick   *exec.Ticker
}

// verifyAll checks every candidate against S — on cfg.Pool when one is
// provided, serially otherwise — and returns the frequent ones. A
// cancellation observed through tick aborts verification and returns
// the context error.
func (lv *level) verifyAll(ctx context.Context, cands map[string]*candidate) (pattern.Set, error) {
	cfg, tick := lv.cfg, lv.tick
	type item struct {
		key string
		c   *candidate
	}
	items := make([]item, 0, len(cands))
	var unitSeeded int64
	for key, c := range cands {
		items = append(items, item{key, c})
		if c.guaranteed.Count() > 0 {
			unitSeeded++
		}
	}

	out := make(pattern.Set)
	total := Stats{Candidates: int64(len(items)), UnitSeeded: unitSeeded}
	// Per-candidate verification timing feeds the "merge.verify"
	// histogram/span aggregation. Timed inline (no defer closures) and
	// only with an observer attached, so the uninstrumented path stays
	// allocation-free.
	o := cfg.Observer
	if cfg.Pool == nil || cfg.Pool.Workers() == 1 || len(items) < 2 {
		for _, it := range items {
			if tick.Hit() {
				return nil, tick.Err()
			}
			var t0 time.Time
			if o != nil {
				t0 = time.Now()
			}
			p, why := lv.check(it.key, it.c, &total)
			if o != nil {
				o.StageEnd("merge.verify", time.Since(t0))
			}
			if p != nil {
				out[it.key] = p
				total.Frequent++
			} else {
				cfg.Border[it.key] = why
			}
		}
	} else {
		var mu sync.Mutex
		err := cfg.Pool.Map(ctx, len(items), func(i int) {
			it := items[i]
			var st Stats
			var t0 time.Time
			if o != nil {
				t0 = time.Now()
			}
			p, why := lv.check(it.key, it.c, &st)
			if o != nil {
				o.StageEnd("merge.verify", time.Since(t0))
			}
			if p != nil {
				st.Frequent++
			}
			mu.Lock()
			if p != nil {
				out[it.key] = p
			} else {
				cfg.Border[it.key] = why
			}
			total.add(&st)
			mu.Unlock()
		})
		if err != nil {
			return nil, err
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
	// parentKey/addedU/addedV are set for extension candidates: removing
	// edge (addedU, addedV) from g yields the parent pattern with
	// canonical key parentKey, sparing one canonicalization during the
	// Apriori check.
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

func addUnitCandidate(cands map[string]*candidate, p *pattern.Pattern, n int) {
	key := p.Code.Key()
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
func seedOldCandidate(cands map[string]*candidate, p *pattern.Pattern) {
	key := p.Code.Key()
	if _, ok := cands[key]; ok {
		return
	}
	cands[key] = &candidate{g: p.Code.Graph(), code: p.Code.Clone(), guaranteed: pattern.NewTIDSet(0)}
}

func addCandidate(cands map[string]*candidate, g *graph.Graph, tids *pattern.TIDSet) {
	code := dfscode.MinCode(g)
	key := code.Key()
	c, ok := cands[key]
	if !ok {
		c = &candidate{g: code.Graph(), code: code, guaranteed: pattern.NewTIDSet(0)}
		cands[key] = c
	}
	if tids != nil {
		c.guaranteed = c.guaranteed.Union(tids)
	}
}

// addExtensionCandidate registers an extension candidate built by
// extensions(): the added edge is by construction the last one inserted
// into ext, so the parent pattern, its supporters and the added-edge
// endpoints travel with the candidate to cheapen its check. The candidate
// keeps ext's own vertex numbering (an isomorphic relabeling of the
// canonical form).
func addExtensionCandidate(cands map[string]*candidate, ext extCandidate, parentKey string, parentTIDs, parentUpd *pattern.TIDSet, tick *exec.Ticker) {
	code := dfscode.MinCodeTick(ext.g, tick)
	key := code.Key()
	if _, ok := cands[key]; ok {
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
// intersection further; (3) per transaction, signature domination must
// hold before an exact (posted, rarest-root) VF2 test runs. In incremental
// mode (cfg.Old/cfg.Updated set) the supporters of a previously frequent
// pattern among unchanged transactions carry over without testing, and
// (0) a candidate that is not previously frequent but sits in the
// previous merge's negative border is pruned ahead of the whole chain
// while its entry still holds. It returns the verified pattern, or nil
// and the border entry saying why the candidate is infrequent.
func (lv *level) check(key string, c *candidate, st *Stats) (*pattern.Pattern, BorderEntry) {
	s, cur, minSup, cfg, dec, tick := lv.s, lv.cur, lv.minSup, lv.cfg, lv.dec, lv.tick
	var old *pattern.Pattern
	if cfg.Old != nil && cfg.Updated != nil {
		old = cfg.Old[key]
		if e, ok := cfg.OldBorder[key]; ok && old == nil {
			updSide := []*pattern.TIDSet{cfg.Updated}
			if c.parentUpd != nil {
				updSide = []*pattern.TIDSet{c.parentUpd, c.addedTIDs}
			}
			if e, holds := e.recheck(lv.result, cfg.Updated, updSide, minSup); holds {
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

	tids := pattern.NewTIDSet(len(s))
	support := 0
	if old != nil && old.TIDs != nil {
		// Unchanged supporters of the old pattern still support it;
		// only updated transactions can gain or lose the pattern.
		tids = old.TIDs.Minus(cfg.Updated)
		support = tids.Count()
		st.CarriedTIDs += int64(support)
		inter.IntersectWith(cfg.Updated)
	}
	// One matcher per candidate: the match order is computed once and the
	// scratch state is reused across every transaction tested below. The
	// matcher roots at the globally rarest label and draws its root
	// candidates from the transaction's posting lists.
	matcher := ix.NewMatcher(c.g)
	psig := index.SigOf(c.g)
	// Allocation-free walk of the candidate TID words; a fired ticker
	// stops it early (the partial count is discarded upstream).
	inter.ForEachUntil(func(tid int) bool {
		if tick.Hit() {
			return false
		}
		if c.guaranteed.Contains(tid) {
			tids.Add(tid)
			support++
			return true
		}
		if !ix.SigDominates(tid, psig) {
			st.SigPruned++
			return true
		}
		st.IsoTests++
		if matcher.ContainsPostedTick(s[tid], ix.Lister(tid), tick) {
			tids.Add(tid)
			support++
		}
		return true
	})
	if support < minSup {
		return nil, BorderEntry{Bound: tids}
	}
	return &pattern.Pattern{Code: c.code, Support: support, TIDs: tids}, BorderEntry{}
}

// frequentEdges scans s for frequent 1-edge patterns with exact supports
// (Fig. 11 line 1). The merge itself reads these off the feature index
// (index.FeatureIndex.FrequentEdges); the scan survives as the reference
// implementation the differential tests compare the index against.
func frequentEdges(s graph.Database, minSup int) pattern.Set {
	type key struct{ li, le, lj int }
	tids := make(map[key]*pattern.TIDSet)
	for tid, g := range s {
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				if u > e.To {
					continue
				}
				li, lj := g.Labels[u], g.Labels[e.To]
				if li > lj {
					li, lj = lj, li
				}
				k := key{li, e.Label, lj}
				ts, ok := tids[k]
				if !ok {
					ts = pattern.NewTIDSet(len(s))
					tids[k] = ts
				}
				ts.Add(tid)
			}
		}
	}
	out := make(pattern.Set)
	for k, ts := range tids {
		if sup := ts.Count(); sup >= minSup {
			code := dfscode.Code{{I: 0, J: 1, LI: k.li, LE: k.le, LJ: k.lj}}
			out[code.Key()] = &pattern.Pattern{Code: code, Support: sup, TIDs: ts}
		}
	}
	return out
}
