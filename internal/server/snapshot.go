// Package server is PartServe: a long-lived query/update service over
// the PartMiner stack. Where every other entry point in this repository
// mines, prints, and exits, PartServe keeps the expensive artifacts —
// the database, the mined pattern set, the feature index, and the
// containment-search index — resident behind an atomic pointer, serves
// concurrent read queries lock-free against them, and folds incoming
// graph updates in through IncPartMiner instead of re-mining the world.
//
// The concurrency design is RCU-shaped:
//
//   - A Snapshot is immutable once published. Readers load the current
//     snapshot pointer once per request and answer entirely from it, so
//     every response is internally consistent (one epoch), with no locks
//     on the read path. The one exception is the pattern ranking behind
//     list reads, built once by the first such read (see Snapshot).
//   - A single writer goroutine owns all mutation: it batches queued
//     update ops, applies them to a copy-on-write database (only touched
//     graphs are cloned; unchanged graphs are shared with the published
//     snapshot), re-mines incrementally against a *clone* of the feature
//     index (index.FeatureIndex.Clone — Update never touches the
//     published index), and publishes a fresh Snapshot with one atomic
//     store. Readers holding the old snapshot finish undisturbed.
package server

import (
	"sync"
	"time"

	"partminer/internal/core"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/pattern"
	"partminer/internal/query"
)

// Snapshot is one immutable, internally consistent view of the service:
// the database, its mined result, the feature index, and the
// containment-search index, all describing the same epoch. Snapshots are
// safe for unlimited concurrent readers; nothing reachable from one is
// ever mutated after publication, with one exception: the ranking of
// Res.Patterns that list reads walk. The first list read of the epoch
// builds it under a sync.Once, which every later reader waits on and
// which orders the build before their reads, so no reader sees it half
// built. It is derived from Res alone, so every reader sees the same
// ranking whoever built it. The writer never builds it, so a fold does
// not pay for it, and a Snapshot written as a literal needs nothing more.
// A Snapshot must not be copied after its first list read.
type Snapshot struct {
	// Epoch numbers published snapshots from 1 (the initial mine); every
	// folded update batch increments it by exactly one.
	Epoch uint64
	// DB is the database at this epoch. Graphs are shared structurally
	// with neighboring epochs when unchanged — do not mutate.
	DB graph.Database
	// Res is the mining result (Res.Patterns is the complete frequent
	// set of DB, bit-for-bit what a fresh PartMiner run would produce).
	Res *core.Result
	// Index is DB's feature index (== Res.Index), the exact
	// label/triple/signature substrate behind support queries.
	Index *index.FeatureIndex
	// Search answers subgraph-containment queries (query.Find), indexed
	// by this epoch's own frequent patterns — assembled from Res, never
	// re-mined.
	Search *query.Index
	// Created is the publication time.
	Created time.Time

	rankOnce sync.Once
	ranked   []pattern.Ranked // Res.Patterns.Ranked(), built by rankOnce
}

// PatternCount returns the number of frequent patterns at this epoch.
func (s *Snapshot) PatternCount() int { return len(s.Res.Patterns) }

// Pattern looks a pattern up by its canonical DFS-code key
// (dfscode.Code.Key form); nil when the code is not frequent here.
func (s *Snapshot) Pattern(key string) *pattern.Pattern {
	return s.Res.Patterns[key]
}

// TopKRange returns, in a fresh slice, the k most frequent patterns with
// minEdges to maxEdges edges (no upper bound when maxEdges <= 0), ordered
// by support descending with canonical-key ties ascending (a total,
// deterministic order). k <= 0 returns every qualifying pattern. With a
// growth envelope configured, ?min_edges= past it selects exactly the
// patterns the root merge-join mined alone. It walks the epoch's ranking
// and stops at k: the set is sorted once per epoch, not once per read.
func (s *Snapshot) TopKRange(k, minEdges, maxEdges int) []*pattern.Pattern {
	top := s.topK(k, minEdges, maxEdges)
	out := make([]*pattern.Pattern, len(top))
	for i, r := range top {
		out[i] = r.P
	}
	return out
}

// topK is TopKRange with each pattern's canonical key.
func (s *Snapshot) topK(k, minEdges, maxEdges int) []pattern.Ranked {
	s.rankOnce.Do(func() { s.ranked = s.Res.Patterns.Ranked() })
	return pattern.TopK(s.ranked, k, minEdges, maxEdges)
}

// Contains returns the ids of every database graph containing q at this
// epoch (ascending), with the query's evaluation statistics.
func (s *Snapshot) Contains(q *graph.Graph) ([]int, query.Stats) {
	return s.Search.Find(q)
}

// ContainsBatch answers many containment queries against this one
// snapshot: every answer is consistent with the same epoch, and the
// snapshot load, plan lookup table, and result cache are shared across
// the batch. Results are positionally aligned with qs.
func (s *Snapshot) ContainsBatch(qs []*graph.Graph) ([][]int, []query.Stats) {
	tids := make([][]int, len(qs))
	sts := make([]query.Stats, len(qs))
	for i, q := range qs {
		tids[i], sts[i] = s.Search.Find(q)
	}
	return tids, sts
}
