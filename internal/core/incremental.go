package core

import (
	"context"
	"fmt"
	"time"

	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/mergejoin"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// IncResult is the outcome of IncPartMiner: the updated frequent set plus
// the paper's three pattern categories (§4.5) and re-mining statistics.
type IncResult struct {
	// Result describes the post-update mining exactly as a fresh
	// PartMiner run would (Patterns is the frequent set of the updated
	// database), so further incremental rounds can chain on it.
	Result
	// UF (unchanged frequency) holds patterns frequent both before and
	// after the update; FI (frequent→infrequent) patterns fell below the
	// threshold; IF (infrequent→frequent) newly crossed it.
	UF, FI, IF pattern.Set
	// ReminedUnits lists the units whose partition pieces changed and
	// were re-mined; the rest reused their previous results.
	ReminedUnits []int
}

// IncPartMiner incrementally mines the updated database newDB given the
// previous run prev over the pre-update database (Fig. 12). updatedTIDs
// lists the indexes of the graphs that were modified; newDB must have the
// same length and graph order as the database prev was mined from, and
// every graph not listed must equal its predecessor. That is checked
// (pointer-equal graphs for free): an unlisted change is an error, not a
// stale answer.
//
// The algorithm rebuilds the partition tree from prev.Tree, bisecting
// only the updated graphs, re-mines only the units whose pieces changed
// (updates isolated by the partitioning criteria keep this set small),
// and replays the merge-join chain incrementally: supporters of
// previously frequent patterns among unchanged graphs carry over without
// isomorphism tests, and candidates the previous merges rejected are
// pruned again from prev.Borders while their entries still hold, so
// frequency checking concentrates on the potential IF patterns. Measured
// on D1kT20N20L200I5 at 4 % support, K=2, 10 % of the graphs updated (the
// benchmark's `mine` workload, medians of ten runs): a fold takes 105 ms
// against 185 ms for mining from scratch. Before the tree was rebuilt
// from the previous one and the border existed it took 178 ms against
// 183 ms. What remains is re-mining the changed units (about half the
// fold) and generating the candidates the border then rejects.
//
// prev is only read, with the one exception it always had: prev.Index is
// patched in place to describe newDB and becomes the new result's index.
// A caller that folds one prev several times passes a shallow copy with
// a cloned index.
func IncPartMiner(newDB graph.Database, updatedTIDs []int, prev *Result) (*IncResult, error) {
	return IncMineContext(context.Background(), newDB, updatedTIDs, prev)
}

// IncMineContext is IncPartMiner with cooperative cancellation; like
// MineContext, re-mining and the incremental merge-join chain observe
// ctx and return ctx.Err() promptly once it is cancelled.
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

	// The unchanged graphs' pieces, carried supporters and border bounds
	// are all reused on the strength of updatedTIDs, so it is checked, not
	// trusted: pointer-equal graphs (a copy-on-write database) cost
	// nothing, the rest one structural comparison each.
	for tid, g := range newDB {
		if old := prev.Tree.Root.DB[tid]; g != old && !updated.Contains(tid) && !g.Equal(old) {
			return nil, fmt.Errorf("core: graph %d differs from the previous run's but is not listed as updated", tid)
		}
	}

	// Re-partition: unchanged graphs keep their pieces, updated graphs
	// are bisected again, so piece comparison below isolates the changed
	// units.
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

	// Decide which units changed: a unit must be re-mined iff any updated
	// graph's piece in it differs from the pre-update piece. (The rebuilt
	// tree has the previous tree's shape, so the leaves pair up.)
	newLeaves := tree.Leaves()
	oldLeaves := prev.Tree.Leaves()
	needRemine := make([]bool, len(newLeaves))
	for i := range newLeaves {
		for _, tid := range updatedTIDs {
			if !newLeaves[i].DB[tid].Equal(oldLeaves[i].DB[tid]) {
				needRemine[i] = true
				break
			}
		}
	}

	// Re-mine changed units only (Fig. 12 lines 3-5); reuse the rest.
	res.UnitPatterns = make([]pattern.Set, len(newLeaves))
	res.UnitTimes = make([]time.Duration, len(newLeaves))
	res.UnitSupport = prev.UnitSupport
	var remineIdx []int
	for i := range newLeaves {
		if needRemine[i] {
			remineIdx = append(remineIdx, i)
		} else {
			res.UnitPatterns[i] = prev.UnitPatterns[i]
		}
	}
	res.ReminedUnits = remineIdx

	// Skew-aware scheduling: Options.unitOrder's submission order,
	// restricted to the re-mined units. ReminedUnits stays in unit order.
	if order := opts.unitOrder(tree); order != nil {
		remineIdx = make([]int, 0, len(res.ReminedUnits))
		for _, i := range order {
			if needRemine[i] {
				remineIdx = append(remineIdx, i)
			}
		}
	}

	pool := opts.pool()
	unitErrs := make([]error, len(remineIdx))
	uctx0, endStage := obs.Phase(ctx, o, "units")
	err = pool.MapCtx(uctx0, len(remineIdx), func(tctx context.Context, j int) {
		i := remineIdx[j]
		uctx, endUnit := obs.Phase(tctx, o, fmt.Sprintf("unit.%d", i))
		defer endUnit()
		uctx = obs.ObserverInContext(uctx, o)
		t0 := time.Now()
		set, uerr := opts.mineUnit(uctx, i, newLeaves[i].DB, ceilDiv(opts.MinSupport, opts.K), opts.classicMaxEdges())
		if set == nil {
			set = make(pattern.Set)
		}
		res.UnitPatterns[i] = set
		res.UnitTimes[i] = time.Since(t0)
		unitErrs[j] = uerr
	})
	endStage()
	if err != nil {
		return nil, err
	}
	for j, uerr := range unitErrs {
		if uerr == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res.Degraded = append(res.Degraded, fmt.Errorf("unit %d: %w", remineIdx[j], uerr))
		exec.Count(o, "units.degraded", 1)
	}

	// IncMergeJoin chain: replay the merges with the old node sets so
	// unchanged transactions skip frequency checks. The previous run's
	// feature index is patched in place for the updated transactions
	// (prev adopts the post-update view too — its database reference is
	// stale either way); a loaded result without one rebuilds fresh.
	t0 := time.Now()
	if prev.Index != nil {
		prev.Index.Update(newDB, updatedTIDs)
		res.Index = prev.Index
	} else if res.Index, err = index.BuildContext(ctx, newDB, pool, o); err != nil {
		return nil, err
	}
	mctx, endStage := obs.Phase(ctx, o, "merge")
	res.NodeSets = make(map[string]pattern.Set)
	res.Borders = make(map[string]mergejoin.Border)
	chain := &mergeChain{res: &res.Result, opts: opts, pool: pool, subKeys: mergejoin.NewSubKeys(), prev: prev, updated: updated}
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
