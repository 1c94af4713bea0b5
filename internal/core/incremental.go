package core

import (
	"context"
	"fmt"
	"time"

	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/mergejoin"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// IncResult is the outcome of IncPartMiner: the updated frequent set plus
// the paper's three pattern categories (§4.5).
type IncResult struct {
	// Result describes the post-update mining exactly as a fresh
	// PartMiner run would (Patterns is the frequent set of the updated
	// database), so further incremental rounds can chain on it.
	Result
	// UF (unchanged frequency) holds patterns frequent both before and
	// after the update; FI (frequent→infrequent) patterns fell below the
	// threshold; IF (infrequent→frequent) newly crossed it.
	UF, FI, IF pattern.Set
	// ReminedUnits is always empty: a fold re-mines no unit. It stays
	// only for the benchmark's core.inc_remined_unit_ratio rung, and goes
	// with that rung when the benchmark next changes.
	ReminedUnits []int
}

// IncPartMiner incrementally mines the updated database newDB given the
// previous run prev over the pre-update database (Fig. 12). updatedTIDs
// lists the indexes of the graphs that were modified; newDB must have the
// same length and graph order as the database prev was mined from, and
// every graph not listed must equal its predecessor. That is checked
// against the per-graph fingerprints prev recorded, so a graph changed in
// place behind a pointer prev shares is caught too: an unlisted change is
// an error, not a stale answer.
//
// The algorithm rebuilds the partition tree from prev.Tree, bisecting
// only the updated graphs, and replays the merge-join chain
// incrementally: supporters of previously frequent patterns among
// unchanged graphs carry over without isomorphism tests, and candidates
// and extensions the previous merges rejected are pruned again from
// prev.Borders while their entries still hold, so frequency checking
// concentrates on the potential IF patterns. Unlike Fig. 12 lines 3-5,
// it re-mines no unit (the merges are complete by extension and carry
// every unchanged supporter), so it calls no unit miner and degrades no
// unit; each unit set is prev's minus the updated graphs' TIDs. The
// benchmark's `mine` workload (D1kT20N20L200I5 at 4 % support, K=2, 10 %
// of the graphs updated) times a fold as `incr_ms` against `remine_ms`
// for mining from scratch; EXPERIMENTS.md records both.
//
// prev is only read, with two exceptions. prev.Index is patched in place
// to describe newDB and becomes the new result's index; a caller that
// folds one prev several times passes a shallow copy with a cloned
// index. And prev's sub-pattern key memo (canonical key → its
// one-edge-removed sub-keys, a pure function of the key) is shared: the
// fold adds to it and hands it on to the new result, so a chain of folds
// canonicalises each removal once. It is safe for concurrent use.
func IncPartMiner(newDB graph.Database, updatedTIDs []int, prev *Result) (*IncResult, error) {
	return IncMineContext(context.Background(), newDB, updatedTIDs, prev)
}

// IncMineContext is IncPartMiner with cooperative cancellation; like
// MineContext, the incremental merge-join chain observes ctx and returns
// ctx.Err() promptly once it is cancelled.
func IncMineContext(ctx context.Context, newDB graph.Database, updatedTIDs []int, prev *Result) (*IncResult, error) {
	if prev == nil || prev.Tree == nil {
		return nil, fmt.Errorf("core: IncPartMiner requires a previous PartMiner result with its partition tree")
	}
	opts := prev.Options
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(newDB) != len(prev.Tree.Root.DB) {
		return nil, fmt.Errorf("core: updated database has %d graphs; previous run had %d (updates must preserve graph order)",
			len(newDB), len(prev.Tree.Root.DB))
	}

	o := opts.Observer
	res := &IncResult{}
	updated := pattern.NewTIDSet(len(newDB))
	for _, tid := range updatedTIDs {
		if tid < 0 || tid >= len(newDB) {
			return nil, fmt.Errorf("core: updated tid %d out of range [0,%d)", tid, len(newDB))
		}
		updated.Add(tid)
	}

	// The unchanged graphs' pieces, unit TIDs, carried supporters and
	// border bounds are all reused on the strength of updatedTIDs, so it
	// is checked, not trusted: every unlisted graph must still have the
	// fingerprint prev recorded for it, which also catches a graph
	// mutated in place behind a pointer prev shares.
	res.fingerprints = fingerprints(newDB)
	for tid, fp := range res.fingerprints {
		if !updated.Contains(tid) && fp != prev.fingerprints[tid] {
			return nil, fmt.Errorf("core: graph %d differs from the previous run's but is not listed as updated", tid)
		}
	}

	// Re-partition: unchanged graphs keep their pieces, updated graphs
	// are bisected again.
	start := time.Now()
	_, endStage := obs.Phase(ctx, o, "partition")
	tree, err := partition.Rebuild(prev.Tree, newDB, updatedTIDs, opts.Bisector)
	endStage()
	if err != nil {
		return nil, err
	}
	res.Tree = tree
	res.PartitionTime = time.Since(start)
	res.PartitionQuality = tree.Quality

	// No unit is re-mined, but the previous sets are kept minus the
	// updated graphs: they seed the candidates the old border was written
	// against, and with no unit sets some folds' borders prune nothing.
	res.UnitPatterns = narrowUnits(prev.UnitPatterns, updated)
	res.UnitTimes = make([]time.Duration, len(res.UnitPatterns))
	res.UnitSupport = prev.UnitSupport

	// IncMergeJoin chain: replay the merges with the old node sets so
	// unchanged transactions skip frequency checks. The previous run's
	// feature index is patched in place for the updated transactions
	// (prev adopts the post-update view too — its database reference is
	// stale either way); a loaded result without one rebuilds fresh.
	t0 := time.Now()
	if prev.Index != nil {
		prev.Index.Update(newDB, updatedTIDs)
		res.Index = prev.Index
	} else if res.Index, err = index.BuildContext(ctx, newDB, o); err != nil {
		return nil, err
	}
	mctx, endStage := obs.Phase(ctx, o, "merge")
	res.NodeSets = make(map[string]pattern.Set)
	res.Borders = make(map[string]mergejoin.Border)
	res.subKeys = prev.subKeys
	if res.subKeys == nil {
		res.subKeys = mergejoin.NewSubKeys()
	}
	chain := &mergeChain{res: &res.Result, opts: opts, prev: prev, updated: updated}
	res.Patterns, err = chain.solve(mctx, tree.Root, "")
	endStage()
	if err != nil {
		return nil, err
	}
	res.MergeTime = time.Since(t0)
	res.Options = opts

	// Classify against the pre-update results (Fig. 12 lines 13-15).
	res.UF = make(pattern.Set)
	res.FI = make(pattern.Set)
	res.IF = make(pattern.Set)
	for key, p := range res.Patterns {
		if _, was := prev.Patterns[key]; was {
			res.UF[key] = p
		} else {
			res.IF[key] = p
		}
	}
	for key, p := range prev.Patterns {
		if _, still := res.Patterns[key]; !still {
			res.FI[key] = p
		}
	}
	return res, nil
}

// narrowUnits returns copies of units minus the updated TIDs: a surviving
// TID names a graph no fold has changed since its unit was mined, so it
// still holds the piece that holds the pattern. A pattern left with no
// TID is dropped; one without TIDs pre-verifies nothing and is kept.
func narrowUnits(units []pattern.Set, updated *pattern.TIDSet) []pattern.Set {
	out := make([]pattern.Set, len(units))
	for i, set := range units {
		out[i] = make(pattern.Set, len(set))
		for key, p := range set {
			if p.TIDs == nil || p.TIDs.IntersectCount(updated) == 0 {
				out[i][key] = p
				continue
			}
			if tids := p.TIDs.Minus(updated); tids.Count() > 0 {
				out[i][key] = &pattern.Pattern{Code: p.Code, Support: tids.Count(), TIDs: tids}
			}
		}
	}
	return out
}
