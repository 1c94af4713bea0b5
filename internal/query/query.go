// Package query provides subgraph containment search over a graph
// database, accelerated by a frequent-pattern index in the spirit of
// gIndex (Yan, Yu & Han, SIGMOD'04 — "Graph indexing: a frequent
// structure-based approach", cited by the paper as related work [18]).
// It is the natural downstream consumer of this repository's miners: the
// index features are exactly the frequent subgraphs PartMiner produces.
//
// Query evaluation follows the filter-verify paradigm: every index
// feature contained in the query graph constrains the answer set to the
// feature's supporting transactions (supporters of a graph support all of
// its subgraphs); the intersection of those TID lists is the candidate
// set, and candidates are verified with exact subgraph isomorphism. An
// exhaustive 1-edge TID table keeps pruning effective even for queries
// whose structure is globally infrequent.
//
// On top of filter-verify, the index keeps the mined pattern set, which
// is keyed by canonical DFS code and carries each pattern's exact TID
// set. A query that canonicalizes to a mined pattern — a planned read —
// is answered directly from that TID set with zero matching work; an
// ad-hoc query falls back to the generic filter-verify path and its
// result enters a bounded per-Index cache under the same canonical key.
// The Index lives inside one server snapshot, so both the planned
// answers and the cache are epoch-consistent by construction and
// invalidated wholesale on snapshot swap.
package query

import (
	"context"
	"fmt"
	"time"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	// MinSupport is the absolute support threshold for index features;
	// default max(2, |db|/20).
	MinSupport int
	// MaxFeatureEdges bounds feature size (default 4). Larger features
	// prune more but cost more per query.
	MaxFeatureEdges int
	// PlanMaxEdges bounds the mined patterns that serve planned reads
	// and the queries canonicalized for plan/cache lookup
	// (canonicalization is factorial in the pattern's automorphisms, so
	// lookup keys are only computed for small queries). Default 8;
	// negative disables the lookup entirely — and with it the result
	// cache, whose keys are the same canonical codes.
	PlanMaxEdges int
	// CacheSize bounds the per-Index ad-hoc result cache (canonical
	// DFS-code key → TID list; entries count, not bytes). Default 1024;
	// negative disables caching.
	CacheSize int
	// Observer, when non-nil, receives a "vf2.match" stage end for every
	// exact isomorphism verification Find runs and a "plan.find" stage
	// end for every plan-served query, plus the plan.compiled / plan.hit
	// / plan.fallback / query.cache_hit / query.cache_miss counters. Nil
	// (the default) adds no per-match work.
	Observer exec.Observer
}

func (o IndexOptions) normalize(dbLen int) IndexOptions {
	if o.MinSupport < 1 {
		o.MinSupport = dbLen / 20
		if o.MinSupport < 2 {
			o.MinSupport = 2
		}
	}
	if o.MaxFeatureEdges <= 0 {
		o.MaxFeatureEdges = 4
	}
	if o.PlanMaxEdges == 0 {
		o.PlanMaxEdges = 8
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// Index is a frequent-structure containment index over a fixed database.
type Index struct {
	db       graph.Database
	features []*pattern.Pattern
	// fx holds the database feature index: exact label and edge-triple
	// TID sets (subsuming the old per-edge table), per-transaction
	// invariant signatures, and label posting lists. It drives both the
	// candidate filter and the verification matcher.
	fx   *index.FeatureIndex
	opts IndexOptions
	// planned is the mined pattern set (canonical DFS-code key → pattern,
	// shared with the caller, read-only): a plan hit answers Find from the
	// pattern's mined TID set without any matching work. planCount is the
	// number of its patterns a query can hit. Nil when PlanMaxEdges < 0.
	planned   pattern.Set
	planCount int
	// cache holds ad-hoc (non-plan) query results, canonical DFS-code key
	// → TID list, for the lifetime of this Index — one snapshot epoch on
	// the server, so a cached result cannot leak across epochs. Find
	// copies on the way in and out. Nil when disabled.
	cache *exec.Cache[[]int]
}

// Stats describes one query evaluation.
type Stats struct {
	// FeaturesTried and FeaturesMatched count index features tested
	// against the query and those contained in it.
	FeaturesTried, FeaturesMatched int
	// Candidates is the filtered candidate count; Verified the number of
	// candidates that actually contain the query.
	Candidates, Verified int
	// SigPruned counts candidates dismissed by signature domination
	// before any isomorphism test.
	SigPruned int
	// PlanHit reports that the query canonicalized to a mined pattern
	// and was answered from its mined TID set; CacheHit that it was
	// answered from the ad-hoc result cache. Both false means the
	// generic filter-verify path ran.
	PlanHit, CacheHit bool
}

// BuildIndex mines db for frequent subgraphs and builds the index.
func BuildIndex(db graph.Database, opts IndexOptions) *Index {
	ix, _ := BuildIndexContext(context.Background(), db, opts)
	return ix
}

// BuildIndexContext is BuildIndex with cooperative cancellation of the
// feature-mining phase (the expensive part of index construction). On
// cancellation it returns nil and ctx.Err().
func BuildIndexContext(ctx context.Context, db graph.Database, opts IndexOptions) (*Index, error) {
	opts = opts.normalize(len(db))
	// The feature index is built first so the mining phase itself can
	// seed its 1-edge projections from it.
	fx, err := index.BuildContext(ctx, db, nil, nil)
	if err != nil {
		return nil, err
	}
	set, err := gaston.MineContext(ctx, db, gaston.Options{MinSupport: opts.MinSupport, MaxEdges: opts.MaxFeatureEdges, Index: fx})
	if err != nil {
		return nil, err
	}
	ix := &Index{db: db, opts: opts, fx: fx}
	for _, by := range set.BySize() {
		for _, p := range by {
			if p.Size() >= 2 {
				ix.features = append(ix.features, p)
			}
		}
	}
	ix.planReads(set)
	return ix, nil
}

// IndexFromPatterns builds the containment index from an already-mined
// frequent-pattern set instead of mining afresh: set's multi-edge
// patterns (with exact TIDs) become the structural features, and fx — the
// database feature index the patterns were mined against — supplies the
// exact label/edge filter and the verification matcher. fx must index db.
//
// This is the server path: PartMiner's Result carries both the pattern
// set and the feature index, so a query index over a fresh snapshot costs
// a sort of the pattern set, not a mining run. Patterns without TIDs and
// patterns larger than MaxFeatureEdges are skipped as features (they
// cannot filter); every pattern up to PlanMaxEdges additionally serves
// planned reads. set must not change afterwards.
func IndexFromPatterns(db graph.Database, fx *index.FeatureIndex, set pattern.Set, opts IndexOptions) *Index {
	opts = opts.normalize(len(db))
	ix := &Index{db: db, opts: opts, fx: fx}
	for _, by := range set.BySize() {
		for _, p := range by {
			if p.Size() < 2 || p.Size() > opts.MaxFeatureEdges || p.TIDs == nil {
				continue
			}
			ix.features = append(ix.features, p)
		}
	}
	ix.planReads(set)
	return ix
}

// planReads adopts set for planned reads — every pattern of up to
// PlanMaxEdges edges that carries its TIDs — and arms the ad-hoc result
// cache. Called once at Index construction — per epoch on the server —
// and reported as the plan.compiled counter.
func (ix *Index) planReads(set pattern.Set) {
	if ix.opts.PlanMaxEdges < 0 {
		return
	}
	ix.planned = set
	for _, p := range set {
		if p.Size() >= 1 && p.Size() <= ix.opts.PlanMaxEdges && p.TIDs != nil {
			ix.planCount++
		}
	}
	exec.Count(ix.opts.Observer, "plan.compiled", int64(ix.planCount))
	if ix.opts.CacheSize > 0 {
		ix.cache = exec.NewCache[[]int](ix.opts.CacheSize)
	}
}

// FeatureCount returns the number of multi-edge index features.
func (ix *Index) FeatureCount() int { return len(ix.features) }

// PlanCount returns the number of mined patterns serving planned reads.
func (ix *Index) PlanCount() int { return ix.planCount }

// planKey returns q's canonical DFS-code key when q is eligible for
// plan/cache lookup: connected, at least one edge, and small enough that
// canonicalization stays cheap. "" otherwise — always, with the lookup
// disabled by a negative PlanMaxEdges. A mined pattern under that key is
// q's own graph, so it is within PlanMaxEdges too.
func (ix *Index) planKey(q *graph.Graph) string {
	if q.EdgeCount() < 1 || q.EdgeCount() > ix.opts.PlanMaxEdges || !q.Connected() {
		return ""
	}
	return dfscode.MinCode(q).Key()
}

// Candidates returns the TIDs that may contain q, by intersecting the TID
// lists of q's edges and of every index feature contained in q. The
// returned statistics describe the filtering work. A query matching a
// mined pattern short-circuits to the pattern's exact TID set.
func (ix *Index) Candidates(q *graph.Graph) (*pattern.TIDSet, Stats) {
	if key := ix.planKey(q); key != "" {
		if p := ix.planned[key]; p != nil && p.TIDs != nil {
			var st Stats
			st.PlanHit = true
			st.Candidates = p.TIDs.Count()
			return p.TIDs.Clone(), st
		}
	}
	return ix.candidatesGeneric(q)
}

func (ix *Index) candidatesGeneric(q *graph.Graph) (*pattern.TIDSet, Stats) {
	var st Stats
	// Label and edge filter: exact and always applicable. NarrowByFeatures
	// intersects the exact TID set of every vertex label and edge triple
	// of q; nil means some feature of q occurs nowhere in the database.
	cand := ix.fx.NarrowByFeatures(q, nil)
	if cand == nil {
		return pattern.NewTIDSet(len(ix.db)), st
	}
	// Structural features: only those small enough to fit in q.
	for _, f := range ix.features {
		if f.Size() > q.EdgeCount() || cand.Count() == 0 {
			break // features are sorted by size ascending
		}
		st.FeaturesTried++
		if isomorph.Contains(q, f.Code.Graph()) {
			st.FeaturesMatched++
			cand.IntersectWith(f.TIDs)
		}
	}
	st.Candidates = cand.Count()
	return cand, st
}

// Find returns the ids of every database graph containing q, ascending,
// with the evaluation statistics.
//
// Three paths, fastest first: a query canonicalizing to a mined pattern
// is answered from the pattern's exact mined TID set (the pattern set is
// fixed for the Index's lifetime, so no matching runs at all); an ad-hoc
// query seen before on this Index is answered from the bounded result
// cache; everything else runs the generic filter-verify path (and
// populates the cache for next time).
func (ix *Index) Find(q *graph.Graph) ([]int, Stats) {
	o := ix.opts.Observer
	key := ix.planKey(q)
	if key != "" {
		if p := ix.planned[key]; p != nil && p.TIDs != nil {
			var t0 time.Time
			if o != nil {
				t0 = time.Now()
			}
			var st Stats
			st.PlanHit = true
			out := p.TIDs.Slice()
			st.Candidates, st.Verified = len(out), len(out)
			if o != nil {
				o.StageEnd("plan.find", time.Since(t0))
				exec.Count(o, "plan.hit", 1)
			}
			return out, st
		}
		if ix.cache != nil {
			if tids, ok := ix.cache.Get(key); ok {
				var st Stats
				st.CacheHit = true
				st.Candidates, st.Verified = len(tids), len(tids)
				exec.Count(o, "query.cache_hit", 1)
				out := make([]int, len(tids))
				copy(out, tids)
				return out, st
			}
			exec.Count(o, "query.cache_miss", 1)
		}
	}
	exec.Count(o, "plan.fallback", 1)
	out, st := ix.findGeneric(q)
	if key != "" && ix.cache != nil {
		ix.cache.Put(key, append([]int(nil), out...))
	}
	return out, st
}

// findGeneric is the filter-verify path: candidate filtering, signature
// domination, then one posted VF2 run per surviving candidate.
func (ix *Index) findGeneric(q *graph.Graph) ([]int, Stats) {
	cand, st := ix.candidatesGeneric(q)
	var out []int
	m := ix.fx.NewMatcher(q) // one rarest-root match order for every candidate
	qsig := index.SigOf(q)
	o := ix.opts.Observer
	cand.ForEach(func(tid int) {
		// Signature domination dismisses candidates whose label
		// histogram, triple counts, or per-label degrees cannot host q.
		if !ix.fx.SigDominates(tid, qsig) {
			st.SigPruned++
			return
		}
		// Each VF2 run is timed inline (no defer closures) and only when
		// an observer is attached, keeping the default path 0-alloc.
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		hit := m.ContainsPostedTick(ix.db[tid], ix.fx.Lister(tid), nil)
		if o != nil {
			o.StageEnd("vf2.match", time.Since(t0))
		}
		if hit {
			out = append(out, tid)
		}
	})
	exec.Count(o, "vf2.steps", m.Steps())
	st.Verified = len(out)
	return out, st
}

// Scan answers the query without the index (the baseline the filter-verify
// paradigm is measured against).
func Scan(db graph.Database, q *graph.Graph) []int {
	var out []int
	m := isomorph.NewMatcher(q)
	for tid, g := range db {
		if m.Contains(g) {
			out = append(out, tid)
		}
	}
	return out
}

func (s Stats) String() string {
	return fmt.Sprintf("features %d/%d matched, %d candidates, %d verified",
		s.FeaturesMatched, s.FeaturesTried, s.Candidates, s.Verified)
}
