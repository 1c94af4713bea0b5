// Package gspan implements the gSpan frequent-subgraph miner (Yan & Han,
// ICDM'02): depth-first pattern growth along rightmost-path extensions with
// minimum-DFS-code canonicality pruning and projected embedding lists.
//
// gSpan is the correctness reference for every other miner in this
// repository: it is simple, complete, and exact. The Gaston-flavored miner
// in internal/gaston is what PartMiner plugs into units, per the paper's
// §4.2; differential tests require the two to agree.
package gspan

import (
	"context"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/extend"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute minimum number of supporting graphs.
	// Values below 1 are treated as 1.
	MinSupport int
	// MaxEdges bounds the pattern size; 0 means unbounded.
	MaxEdges int
}

func (o Options) minSup() int {
	if o.MinSupport < 1 {
		return 1
	}
	return o.MinSupport
}

// Mine returns every frequent connected subgraph of db with at least one
// edge, keyed by canonical DFS code, with supports and supporting TIDs.
func Mine(db graph.Database, opts Options) pattern.Set {
	set, _ := MineContext(context.Background(), db, opts)
	return set
}

// MineContext is Mine with cooperative cancellation: the recursive
// pattern-growth loop checks ctx (amortized through an exec.Ticker) and
// aborts promptly once it is cancelled. On cancellation the partial set
// mined so far is returned together with ctx.Err(); only a nil error
// guarantees a complete result.
// The context's ambient observer (exec.ObserverFrom, installed per unit
// by core) receives the miner's internal phases — "gspan.seeds" for the
// 1-edge seeding scan, "gspan.grow" for the recursive growth — and a
// "gspan.patterns" counter; with no observer attached the reporting
// costs one context lookup.
func MineContext(ctx context.Context, db graph.Database, opts Options) (pattern.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := exec.ObserverFrom(ctx)
	memo := dfscode.MemoFrom(ctx)
	if memo == nil {
		memo = dfscode.NewCanonMemo()
	}
	m := &miner{
		src:  extend.DB(db),
		opts: opts,
		out:  make(pattern.Set),
		tick: exec.NewTicker(ctx),
		ext:  extend.NewExtender(),
		memo: memo,
	}
	endStage := exec.StageTimer(o, "gspan.seeds")
	seeds := m.ext.Initial(m.src, opts.minSup())
	endStage()
	endStage = exec.StageTimer(o, "gspan.grow")
	for _, c := range seeds {
		if m.tick.Hit() {
			break
		}
		code := dfscode.Code{c.Edge}
		m.emit(code, c.Proj)
		if opts.MaxEdges == 0 || opts.MaxEdges > 1 {
			m.grow(code, c.Proj)
		}
	}
	endStage()
	exec.Count(o, "gspan.patterns", int64(len(m.out)))
	return m.out, m.tick.Err()
}

type miner struct {
	src  extend.Source
	opts Options
	out  pattern.Set
	tick *exec.Ticker
	// ext owns the run's embedding arena and extension scratch.
	ext *extend.Extender
	// memo caches IsCanonical verdicts across the run (and, when the
	// context carries a shared memo, across every unit of a PartMiner
	// run).
	memo *dfscode.CanonMemo
}

func (m *miner) emit(code dfscode.Code, proj extend.Projection) {
	tids := proj.TIDs(m.src.Len())
	m.out.Add(&pattern.Pattern{
		Code:    code.Clone(),
		Support: tids.Count(),
		TIDs:    tids,
	})
}

// grow extends a canonical frequent code by every frequent canonical
// rightmost-path extension, depth first.
func (m *miner) grow(code dfscode.Code, proj extend.Projection) {
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
		m.emit(child, cand.Proj)
		if m.opts.MaxEdges == 0 || len(child) < m.opts.MaxEdges {
			m.grow(child, cand.Proj)
		}
	}
}
