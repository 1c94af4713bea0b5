// Package query provides subgraph containment search over a graph
// database, served from the frequent-pattern set PartMiner mined for it —
// the natural downstream consumer of this repository's miners.
//
// A query takes the first of three read paths:
//
//   - planned: a query that canonicalizes to a mined pattern is answered
//     from the pattern's exact TID set with zero matching work;
//   - cached: an ad-hoc query seen before on this Index is answered from a
//     bounded result cache keyed by the same canonical DFS code;
//   - narrowed + VF2: everything else is narrowed to the transactions
//     holding every vertex label and edge triple of the query (the
//     feature index's exact TID sets), then the index's verify loop —
//     the same one the merge-join's frequency check runs — decides
//     containment. Its answer enters the cache.
//
// The Index lives inside one server snapshot, so both the planned
// answers and the cache are epoch-consistent by construction and
// invalidated wholesale on snapshot swap.
package query

import (
	"time"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

// IndexOptions configures IndexFromPatterns.
type IndexOptions struct {
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
	// uncached ad-hoc read (one index.FeatureIndex.Verify call over its
	// candidates) and a "plan.find" stage end for every plan-served query,
	// plus the plan.compiled / plan.hit / plan.fallback / query.cache_hit /
	// query.cache_miss / vf2.steps counters. Nil (the default) adds no
	// per-read work.
	Observer exec.Observer
}

func (o IndexOptions) normalize() IndexOptions {
	if o.PlanMaxEdges == 0 {
		o.PlanMaxEdges = 8
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// Index is a containment index over a fixed database and its mined
// pattern set.
type Index struct {
	db graph.Database
	// fx holds the database feature index: exact label and edge-triple
	// TID sets, per-transaction invariant signatures, and label posting
	// lists. It drives both the candidate filter and the verification
	// matcher.
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
	// Candidates is the filtered candidate count; Verified the number of
	// candidates that actually contain the query.
	Candidates, Verified int
	// SigPruned counts candidates dismissed by signature domination
	// before any isomorphism test.
	SigPruned int
	// PlanHit reports that the query canonicalized to a mined pattern
	// and was answered from its mined TID set; CacheHit that it was
	// answered from the ad-hoc result cache. Both false means the
	// narrowed + VF2 path ran.
	PlanHit, CacheHit bool
}

// IndexFromPatterns builds the containment index over db from an
// already-mined frequent-pattern set: fx — the database feature index
// the patterns were mined against — supplies the exact label/edge-triple
// filter and the verification matcher, and every pattern of up to
// PlanMaxEdges edges that carries its TIDs serves planned reads. fx must
// index db; set must not change afterwards.
//
// PartMiner's Result carries both the pattern set and the feature index,
// so a query index over a fresh server snapshot costs a pass over the
// pattern set, not a mining run.
func IndexFromPatterns(db graph.Database, fx *index.FeatureIndex, set pattern.Set, opts IndexOptions) *Index {
	ix := &Index{db: db, opts: opts.normalize(), fx: fx}
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

// FeatureCount returns 0: the index keeps no structural features, since
// the exact label/triple narrowing alone filters ad-hoc reads. It stays
// for its one caller, the benchmark ladder's query.features rung
// (benchmark/ladder.go).
func (ix *Index) FeatureCount() int { return 0 }

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

// Find returns the ids of every database graph containing q, ascending,
// with the evaluation statistics.
//
// Three paths, fastest first: a query canonicalizing to a mined pattern
// is answered from the pattern's exact mined TID set (the pattern set is
// fixed for the Index's lifetime, so no matching runs at all); an ad-hoc
// query seen before on this Index is answered from the bounded result
// cache; everything else runs the narrowed + VF2 path (and populates the
// cache for next time).
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

// findGeneric is the narrowed + VF2 path: the exact label/edge-triple
// TID narrowing, then the feature index's verify loop (signature
// domination, one posted VF2 run per surviving candidate).
func (ix *Index) findGeneric(q *graph.Graph) ([]int, Stats) {
	cand := ix.fx.CandidateTIDs(q)
	// The verify call is timed inline and only when an observer is
	// attached, keeping the default path free of clock reads.
	o := ix.opts.Observer
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	tids, vst := ix.fx.Verify(q, cand, nil, nil)
	if o != nil {
		o.StageEnd("vf2.match", time.Since(t0))
	}
	exec.Count(o, "vf2.steps", vst.Steps)
	out := tids.Slice()
	return out, Stats{Candidates: cand.Count(), Verified: len(out), SigPruned: int(vst.SigPruned)}
}

// Scan answers the query without the index (the baseline the narrowed +
// VF2 path is measured against).
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
