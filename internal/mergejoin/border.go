package mergejoin

import "partminer/internal/pattern"

// Border is a merge's negative border — the paper's prune set P (§4.5):
// the reason each thing the merge rejected cannot be frequent. It has two
// kinds of key. A candidate is keyed by its canonical DFS-code key. In a
// fold, an extension q + e rejected before it was built is keyed by its
// extension key, q's canonical key plus "+u v le lv" for the added edge
// (appendExtKey); one graph may have several. An extension key is a
// deterministic function of q's key, so it means the same to every fold
// in the process; a border that is persisted must be written under
// canonical keys. The next IncMergeJoin over the same tree node
// re-establishes a reason against the updated database in a few bitset
// operations instead of re-deriving it through path lookups, feature
// narrowing, decomposition covers, subpattern canonicalization and
// isomorphism tests.
//
// A Border and its entries are immutable once the merge that recorded
// them returns: incremental merges read the old border and build a new
// one, sharing unchanged entries.
type Border map[string]BorderEntry

// BorderEntry is one rejected candidate's reason; exactly one field is
// set.
type BorderEntry struct {
	// Blocker is the canonical key of an infrequent connected subpattern
	// of the candidate: the one-edge-removed subpattern missing from the
	// previous level, the decomposition piece missing from the recovered
	// set, or the 2-edge path through the added edge that the path
	// filter found missing. The containment is structural, so the entry never
	// goes stale: while Blocker is absent from the (complete) result at
	// its size, Apriori rejects the candidate.
	Blocker string
	// Bound is a superset of the candidate's supporting transactions with
	// fewer than MinSupport members: the path filter's intersection, the
	// feature narrowing, the fused piece intersection, the Apriori
	// intersection, or the exact TIDs after counting.
	Bound *pattern.TIDSet
}

// recheck re-establishes an old entry against the updated database.
// result is the complete frequent set of every size below the
// candidate's; updSide bounds the candidate's supporters among the
// updated transactions. Unchanged graphs cannot gain the pattern, so its
// supporters lie within (Bound \ updated) ∪ updSide. It returns the
// refreshed entry and whether the candidate is still provably infrequent.
func (e BorderEntry) recheck(result pattern.Set, updated *pattern.TIDSet, updSide []*pattern.TIDSet, minSup int) (BorderEntry, bool) {
	if e.Blocker != "" {
		_, frequent := result[e.Blocker]
		return e, !frequent
	}
	if e.Bound.AndNotCount(updated)+pattern.IntersectCountMulti(updSide) >= minSup {
		return e, false
	}
	gained := updSide[0].Clone()
	for _, ts := range updSide[1:] {
		gained.IntersectWith(ts)
	}
	return BorderEntry{Bound: gained.UnionWith(e.Bound.Minus(updated))}, true
}

// updatedSide bounds the supporters of an extension q + e among the
// updated transactions, for recheck: q's updated supporters qUpd ∩ the
// added triple's, or all of updated when q tracks no TIDs or the
// candidate has no parent.
func updatedSide(updated, qUpd, added *pattern.TIDSet) []*pattern.TIDSet {
	if qUpd != nil && added != nil {
		return []*pattern.TIDSet{qUpd, added}
	}
	return []*pattern.TIDSet{updated}
}

// carry moves the old entries this merge recorded nothing under into
// border (of either kind of key), so a later fold that does generate them
// still finds them. A
// blocker entry carries as is while its blocker is still infrequent, and
// is dropped once the blocker is frequent: it no longer says why the
// candidate is. A bound entry must admit every updated transaction —
// nothing narrower is known about a candidate that was not generated —
// and is dropped once that pushes it to minSup.
func (border Border) carry(old Border, result pattern.Set, updated *pattern.TIDSet, minSup int) {
	for key, e := range old {
		if _, met := border[key]; met {
			continue
		}
		if _, frequent := result[key]; frequent {
			continue
		}
		if _, frequent := result[e.Blocker]; e.Blocker != "" && frequent {
			continue
		}
		if e.Bound != nil {
			if e.Bound.Count()+updated.AndNotCount(e.Bound) >= minSup {
				continue
			}
			e.Bound = e.Bound.Union(updated)
		}
		border[key] = e
	}
}
