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
//     on the read path.
//   - A single writer goroutine owns all mutation: it batches queued
//     update ops, applies them to a copy-on-write database (only touched
//     graphs are cloned; unchanged graphs are shared with the published
//     snapshot), re-mines incrementally against a *clone* of the feature
//     index (index.FeatureIndex.Clone — Update never touches the
//     published index), and publishes a fresh Snapshot with one atomic
//     store. Readers holding the old snapshot finish undisturbed.
package server

import (
	"hash/fnv"
	"sort"
	"strconv"
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
// ever mutated after publication.
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
}

// PatternCount returns the number of frequent patterns at this epoch.
func (s *Snapshot) PatternCount() int { return len(s.Res.Patterns) }

// Pattern looks a pattern up by its canonical DFS-code key
// (dfscode.Code.Key form); nil when the code is not frequent here.
func (s *Snapshot) Pattern(key string) *pattern.Pattern {
	return s.Res.Patterns[key]
}

// TopK returns the k most frequent patterns with at least minSize edges,
// ordered by support descending with canonical-key ties ascending (a
// total, deterministic order). k <= 0 returns every qualifying pattern.
func (s *Snapshot) TopK(k, minSize int) []*pattern.Pattern {
	return s.TopKRange(k, minSize, 0)
}

// TopKRange is TopK with both ends of the size filter: patterns with
// fewer than minEdges or (when maxEdges > 0) more than maxEdges edges
// are excluded. With a growth envelope configured, ?min_edges= past it
// selects exactly the patterns the root merge-join mined alone.
func (s *Snapshot) TopKRange(k, minEdges, maxEdges int) []*pattern.Pattern {
	out := make([]*pattern.Pattern, 0, len(s.Res.Patterns))
	for _, p := range s.Res.Patterns {
		if p.Size() >= minEdges && (maxEdges <= 0 || p.Size() <= maxEdges) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Code.Key() < out[j].Code.Key()
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Contains returns the ids of every database graph containing q at this
// epoch (ascending), with the filter-verify statistics.
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

// Fingerprint digests the snapshot's observable state — pattern keys
// with supports, database shape — into one order-independent hash.
// Consistency tests record it per epoch at publication and verify that
// every concurrent read observes a recorded (epoch, fingerprint) pair.
func (s *Snapshot) Fingerprint() uint64 {
	var acc uint64
	for key, p := range s.Res.Patterns {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte("="))
		h.Write([]byte(strconv.Itoa(p.Support)))
		acc += h.Sum64() // commutative fold: map order must not matter
	}
	h := fnv.New64a()
	h.Write([]byte(strconv.Itoa(len(s.DB))))
	h.Write([]byte("/"))
	h.Write([]byte(strconv.Itoa(s.DB.TotalEdges())))
	return acc + h.Sum64()
}
