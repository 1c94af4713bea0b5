// Package gaston implements a Gaston-flavored frequent-subgraph miner
// (Nijssen & Kok, SIGKDD'04), the memory-based algorithm the paper plugs
// into each unit (§4.2, Fig. 7). Gaston's "quickstart" observation is that
// most frequent substructures in practice are free trees; what this
// package keeps of it is the classification — every frequent pattern is
// counted as a path, a tree or a cyclic graph (Stats, the gaston.paths /
// gaston.trees / gaston.cyclic counters).
//
// The enumeration itself is gSpan's: rightmost-path growth with forward
// and backward extensions at every pattern, duplicates pruned by minimum
// DFS code (internal/dfscode). There is no forward-only acyclic phase and
// no free-tree normal form. A pattern turns cyclic at its first backward
// (cycle-closing) edge and stays cyclic. The output is identical to
// gspan.Mine (differential tests enforce this); internal/gspan stays a
// separate file because it is the reference the tests compare against.
package gaston

import (
	"context"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/extend"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/pattern"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute minimum number of supporting graphs.
	// Values below 1 are treated as 1.
	MinSupport int
	// MaxEdges bounds the pattern size; 0 means unbounded.
	MaxEdges int
	// Index, when non-nil, must be the feature index of the mined
	// database: the initial 1-edge projections are then seeded from its
	// per-triple occurrence lists instead of scanning the database, never
	// allocating embeddings for infrequent triples.
	Index *index.FeatureIndex
}

func (o Options) minSup() int {
	if o.MinSupport < 1 {
		return 1
	}
	return o.MinSupport
}

// Stats reports how many frequent patterns fall in each Gaston class.
// Paths and Trees partition the acyclic patterns (a path is a tree whose
// vertices all have degree <= 2); Cyclic counts patterns with at least one
// cycle-closing edge.
type Stats struct {
	Paths  int
	Trees  int
	Cyclic int
}

// Total returns the number of frequent patterns found.
func (s Stats) Total() int { return s.Paths + s.Trees + s.Cyclic }

// Mine returns every frequent connected subgraph of db with at least one
// edge. The result is identical to gspan.Mine on the same inputs.
func Mine(db graph.Database, opts Options) pattern.Set {
	set, _ := MineWithStats(db, opts)
	return set
}

// MineContext is Mine with cooperative cancellation: the enumeration
// loop checks ctx (amortized through an exec.Ticker) and aborts
// promptly once it is cancelled. On cancellation the partial
// set mined so far is returned together with ctx.Err(); only a nil
// error guarantees a complete result.
func MineContext(ctx context.Context, db graph.Database, opts Options) (pattern.Set, error) {
	set, _, err := MineWithStatsContext(ctx, db, opts)
	return set, err
}

// MineWithStats additionally reports the per-class pattern counts.
func MineWithStats(db graph.Database, opts Options) (pattern.Set, Stats) {
	set, stats, _ := MineWithStatsContext(context.Background(), db, opts)
	return set, stats
}

// MineWithStatsContext combines MineContext and MineWithStats. The
// context's ambient observer (exec.ObserverFrom, installed per unit by
// core) receives the internal phases — "gaston.seeds", "gaston.grow" —
// and the per-class pattern counts as counters; with no observer
// attached the reporting costs one context lookup.
func MineWithStatsContext(ctx context.Context, db graph.Database, opts Options) (pattern.Set, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	o := exec.ObserverFrom(ctx)
	tick := exec.NewTicker(ctx)
	memo := dfscode.MemoFrom(ctx)
	if memo == nil {
		memo = dfscode.NewCanonMemo()
	}
	m := &miner{
		src:  extend.DB(db),
		opts: opts,
		out:  make(pattern.Set),
		tick: tick,
		ext:  extend.NewExtender(),
		memo: memo,
	}
	// Fig. 7 line 1: find all frequent edges; every frequent edge is a
	// (trivial) path.
	endStage := exec.StageTimer(o, "gaston.seeds")
	seeds := initialCandidates(m.ext, m.src, opts)
	endStage()
	endStage = exec.StageTimer(o, "gaston.grow")
	for _, c := range seeds {
		if tick.Hit() {
			break
		}
		code := dfscode.Code{c.Edge}
		m.emit(code, c.Proj, false)
		if opts.MaxEdges == 0 || opts.MaxEdges > 1 {
			m.grow(code, c.Proj, false)
		}
	}
	endStage()
	reportStats(o, m.stats)
	return m.out, m.stats, tick.Err()
}

// reportStats publishes the per-class pattern counts on the observer
// seam under the gaston.* counter namespace.
func reportStats(o exec.Observer, s Stats) {
	exec.Count(o, "gaston.paths", int64(s.Paths))
	exec.Count(o, "gaston.trees", int64(s.Trees))
	exec.Count(o, "gaston.cyclic", int64(s.Cyclic))
}

// initialCandidates seeds the frequent 1-edge projections — from the
// feature index's occurrence lists when one is provided, by database
// scan otherwise. Both paths produce identical candidates.
func initialCandidates(ext *extend.Extender, src extend.Source, opts Options) []extend.Candidate {
	if opts.Index != nil {
		return ext.InitialSeeds(opts.Index.Seeds(opts.minSup()), opts.minSup())
	}
	return ext.Initial(src, opts.minSup())
}

type miner struct {
	src   extend.Source
	opts  Options
	out   pattern.Set
	stats Stats
	tick  *exec.Ticker
	// ext owns the run's embedding arena and extension scratch.
	ext *extend.Extender
	// memo caches IsCanonical verdicts across the run (shared across
	// units when the context carries a PartMiner-scoped memo).
	memo *dfscode.CanonMemo
}

// emit records a frequent pattern and counts it in its class.
func (m *miner) emit(code dfscode.Code, proj extend.Projection, cyclic bool) {
	tids := proj.TIDs(m.src.Len())
	m.out.Add(&pattern.Pattern{
		Code:    code.Clone(),
		Support: tids.Count(),
		TIDs:    tids,
	})
	switch {
	case cyclic:
		m.stats.Cyclic++
	case isPathCode(code):
		m.stats.Paths++
	default:
		m.stats.Trees++
	}
}

// grow extends code by every frequent canonical rightmost-path extension
// (Fig. 7 lines 7-14: node refinements find paths and trees, other
// extensions find cyclic graphs). cyclic says code already has a cycle; a
// child is cyclic if its parent is or its new edge is backward (a graph
// never loses its cycle by growing).
func (m *miner) grow(code dfscode.Code, proj extend.Projection, cyclic bool) {
	for _, cand := range m.ext.Extensions(m.src, code, proj, m.tick) {
		if m.tick.Hit() {
			return
		}
		if cand.Proj.Support() < m.opts.minSup() {
			continue
		}
		child := append(code.Clone(), cand.Edge)
		if !m.memo.IsCanonicalTick(child, m.tick) {
			continue
		}
		childCyclic := cyclic || !cand.Edge.Forward()
		m.emit(child, cand.Proj, childCyclic)
		if m.opts.MaxEdges == 0 || len(child) < m.opts.MaxEdges {
			m.grow(child, cand.Proj, childCyclic)
		}
	}
}

// isPathCode reports whether the (acyclic) code is a simple path: every
// vertex has degree at most two.
func isPathCode(code dfscode.Code) bool {
	deg := make([]int, code.VertexCount())
	for _, e := range code {
		deg[e.I]++
		deg[e.J]++
		if deg[e.I] > 2 || deg[e.J] > 2 {
			return false
		}
	}
	return true
}
