// Package core implements the paper's primary contribution: the PartMiner
// partition-based graph mining algorithm (§4.4, Fig. 11) and its
// incremental extension IncPartMiner for dynamic databases (§4.5,
// Fig. 12).
//
// PartMiner works in two phases. Phase 1 divides the database into k units
// with internal/partition. Phase 2 mines each unit with a memory-based
// miner (Gaston by default, §4.2) at reduced support sup/k — reduced so
// that any pattern frequent in the database is frequent in at least one
// unit — and recursively combines unit results up the partition tree with
// internal/mergejoin, checking merged candidates at support sup/2^level.
//
// Execution runs on the shared substrate of internal/exec: MineContext
// and IncMineContext propagate context cancellation into every layer, a
// single bounded worker pool schedules unit mining and merge-join
// verification, and an optional exec.Observer receives the per-phase
// breakdown (partition / per-unit / merge) the paper's §5 tables report.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/mergejoin"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// IndexedUnitMiner mines the complete frequent-pattern set of one unit
// database, in place of the default (Gaston, the paper's choice, §4.2),
// at the given absolute support. Implementations must return exact
// supports and TIDs relative to the unit database's indexes, observe ctx
// cancellation cooperatively, and report failures through the error: a
// non-nil error with a usable (possibly empty) set marks the unit as
// degraded — PartMiner's extension-based merge-join stays correct without
// unit results, only slower — and is surfaced in Result.Degraded.
//
// unit is the unit's index in the partition (0..K-1). Sharded
// deployments place by it: internal/cluster sends unit i to the i-th
// worker in id order, so K units spread evenly over the fleet.
type IndexedUnitMiner func(ctx context.Context, unit int, db graph.Database, minSup, maxEdges int) (pattern.Set, error)

// Options configures PartMiner.
type Options struct {
	// MinSupport is the absolute minimum support in the full database.
	// Values below 1 are treated as 1.
	MinSupport int
	// K is the number of units (Fig. 6); it defaults to 2. K=1 degrades
	// to plain in-memory mining of the whole database.
	K int
	// Bisector selects the partitioning criteria; default Partition3
	// (isolate updated vertices and minimize connectivity).
	Bisector partition.Bisector
	// Parallel mines the units concurrently (§5.1.3's parallel mode) and
	// verifies merge-join candidates concurrently, all on one bounded
	// worker pool shared by the whole run.
	Parallel bool
	// Workers bounds the run's worker pool when Parallel is set; 0 means
	// runtime.GOMAXPROCS(0). In serial mode it does not change execution.
	Workers int
	// MaxEdges bounds pattern size; 0 means unbounded.
	MaxEdges int
	// GrowthEnvelope is where edge-by-edge unit mining stops: when > 0
	// and below MaxEdges (0 there is unbounded) the unit miners and the
	// inner-node merges stop at that size and the root merge-join alone
	// continues to MaxEdges, extending its own levels with no unit
	// input. Results stay exact; only the route to large patterns
	// changes. 0, or K = 1 (no merge-join to continue), mines every size
	// in the units.
	GrowthEnvelope int
	// UnitCosts, when non-empty, is the estimated mining cost per unit
	// (e.g. the measured UnitTimes of a previous epoch, as PartServe
	// maintains across folds). The scheduler starts units in descending
	// estimated cost so the slowest unit never starts last; with fewer
	// workers than units this bounds the parallel phase's wall clock.
	// Entries beyond the unit count are ignored; missing entries fall
	// back to the unit's edge count. Costs never affect results, only
	// scheduling.
	UnitCosts []time.Duration
	// UnitMinerIndexed overrides the per-unit mining algorithm; default
	// Gaston.
	UnitMinerIndexed IndexedUnitMiner
	// Observer, when non-nil, receives stage timings ("partition",
	// "unit.<i>", "units", "merge", "merge.<path>") and work counters
	// from every layer of the run. obs.Registry is the aggregating
	// implementation.
	Observer exec.Observer
}

func (o *Options) normalize() error {
	if o.MinSupport < 1 {
		o.MinSupport = 1
	}
	if o.K == 0 {
		o.K = 2
	}
	if o.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", o.K)
	}
	if o.Bisector == nil {
		o.Bisector = partition.Partition3
	}
	return nil
}

// envelopeCapsUnits reports whether unit mining stops at the growth
// envelope and the root merge-join continues past it alone.
func (o Options) envelopeCapsUnits() bool {
	return o.GrowthEnvelope > 0 && o.K > 1 && (o.MaxEdges == 0 || o.MaxEdges > o.GrowthEnvelope)
}

// classicMaxEdges is the size bound handed to unit miners and the
// inner-node merges: the growth envelope when the root merge-join
// continues beyond it, MaxEdges otherwise.
func (o Options) classicMaxEdges() int {
	if o.envelopeCapsUnits() {
		return o.GrowthEnvelope
	}
	return o.MaxEdges
}

// mineUnit mines unit i with the configured override, or Gaston. Both
// the initial mine and incremental re-mines go through here so sharded
// deployments see every unit mine with its identity attached.
func (o Options) mineUnit(ctx context.Context, i int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
	if o.UnitMinerIndexed != nil {
		return o.UnitMinerIndexed(ctx, i, db, minSup, maxEdges)
	}
	return gaston.MineContext(ctx, db, gaston.Options{MinSupport: minSup, MaxEdges: maxEdges})
}

// pool builds the run's shared execution pool: a real bounded pool in
// parallel mode, a strictly in-order single-worker pool otherwise (so
// serial runs stay deterministic and goroutine-free).
func (o Options) pool() *exec.Pool {
	if !o.Parallel {
		return exec.Serial()
	}
	workers := o.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return exec.NewPool(workers)
}

// unitOrder computes the submission order for the unit-mining phase:
// descending estimated cost, so with fewer workers than units the
// heaviest unit is never the one that starts last. Measured costs from a
// previous epoch (UnitCosts) win when present; units without one fall
// back to their edge count (from the tree's quality measurement), the
// best static proxy for mining cost. Index order is kept for equal-cost
// units (stable sort) and returned unchanged when no cost signal
// discriminates the units. A nil return means "index order" to
// exec.MapOrderedCtx.
func (o Options) unitOrder(tree *partition.Tree) []int {
	n := len(tree.Units)
	cost := make([]float64, n)
	any := false
	for i := 0; i < n; i++ {
		switch {
		case i < len(o.UnitCosts) && o.UnitCosts[i] > 0:
			cost[i] = float64(o.UnitCosts[i])
		case i < len(tree.Quality.UnitEdges):
			cost[i] = float64(tree.Quality.UnitEdges[i])
		}
		if cost[i] != cost[0] {
			any = true
		}
	}
	if !any {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}

// Result carries the mined patterns plus the breakdown the paper's
// evaluation reports: per-unit mining times (for aggregate vs parallel
// runtime, §5.1.3) and the partition tree for reuse by IncPartMiner.
type Result struct {
	// Patterns is the complete frequent-subgraph set of the database.
	Patterns pattern.Set
	// Tree is the partition tree built in Phase 1.
	Tree *partition.Tree
	// UnitPatterns[i] is the frequent set mined in unit i at UnitSupport.
	UnitPatterns []pattern.Set
	// UnitSupport is the reduced threshold the units were mined at.
	UnitSupport int
	// UnitTimes[i] is the wall time of mining unit i.
	UnitTimes []time.Duration
	// PartitionTime and MergeTime cover Phase 1 and the merge-join chain.
	PartitionTime time.Duration
	MergeTime     time.Duration
	// PartitionQuality is the quality of the Phase-1 partitioning
	// (edge-cut ratio, replication factor, unit balance), copied from
	// Tree.Quality so it survives persistence round-trips.
	PartitionQuality partition.Quality
	// MergeStats aggregates candidate/verification counters across every
	// merge-join in the run.
	MergeStats mergejoin.Stats
	// Degraded records unit-miner failures, one error per degraded unit
	// in unit order. A degraded unit contributed an empty (or partial)
	// accelerator set: the run's Patterns stay exact — the merge-join
	// re-derives everything from the database — but slower. A cluster
	// coordinator degrades a unit only when its own local fallback fails
	// too (cancellation, in practice); a dead fleet is in its Err().
	Degraded []error
	// NodeSets holds the merged frequent set of every internal partition-
	// tree node, keyed by tree path ("" is the root, "0"/"1" its
	// children, and so on). IncPartMiner reuses them to skip frequency
	// checks on unchanged transactions.
	NodeSets map[string]pattern.Set
	// Borders holds, beside NodeSets and under the same keys, the negative
	// border each merge recorded: why every candidate it rejected is
	// infrequent. IncPartMiner consults it to prune those candidates again
	// without redoing the work. Like Index it lives in memory only — it is
	// neither persisted nor shipped to replicas; a loaded Result carries
	// none and its first fold verifies every candidate in full.
	Borders map[string]mergejoin.Border
	// Index is the full database's feature index, built once per run and
	// shared by the root merge-join; IncPartMiner patches it in place for
	// updated transactions instead of rebuilding. It is not persisted —
	// a loaded Result carries a nil Index and the next run rebuilds it.
	Index *index.FeatureIndex
	// Options echoes the configuration the result was produced with, so
	// an incremental run can stay consistent with it.
	Options Options
}

// AggregateTime is the serial-mode runtime: partitioning plus the sum of
// all unit mining times plus merging.
func (r *Result) AggregateTime() time.Duration {
	total := r.PartitionTime + r.MergeTime
	for _, d := range r.UnitTimes {
		total += d
	}
	return total
}

// PartMiner mines the complete set of frequent subgraphs of db (Fig. 11).
func PartMiner(db graph.Database, opts Options) (*Result, error) {
	return MineContext(context.Background(), db, opts)
}

// MineContext is PartMiner with cooperative cancellation: every phase —
// partitioning aside, which is cheap — checks ctx and the run returns
// ctx.Err() promptly once it is cancelled. Serial and parallel runs of
// the same configuration produce identical pattern sets.
func MineContext(ctx context.Context, db graph.Database, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One canonicality memo for the whole run: units of the same database
	// re-derive many of the same DFS codes, and IsCanonical verdicts are
	// pure functions of the code, so every unit miner can
	// share the verdict cache through the context.
	ctx = dfscode.WithMemo(ctx)
	o := opts.Observer
	res := &Result{}

	// Phase 1: divide the database into k units.
	start := time.Now()
	_, endStage := obs.Phase(ctx, o, "partition")
	tree, err := partition.DBPartition(db, opts.K, opts.Bisector)
	endStage()
	if err != nil {
		return nil, err
	}
	res.Tree = tree
	res.PartitionTime = time.Since(start)
	res.PartitionQuality = tree.Quality

	// Phase 2a: mine the units at the paper's reduced support ⌈sup/k⌉,
	// which guarantees that a pattern frequent in the database is frequent
	// in at least one unit. (With the default extension-based merge-join
	// the unit results are accelerators — recovery is complete for any
	// unit threshold — so the paper's bound is used as-is.)
	leaves := tree.Leaves()
	res.UnitPatterns = make([]pattern.Set, len(leaves))
	res.UnitTimes = make([]time.Duration, len(leaves))
	res.UnitSupport = ceilDiv(opts.MinSupport, opts.K)

	pool := opts.pool()
	unitErrs := make([]error, len(leaves))
	// Each unit opens its own "unit.<i>" phase inside the pooled task, so
	// the span it hangs off the ambient trace attributes the work to the
	// right unit even when the shared pool interleaves them; the merged
	// observer (run observer + unit span) rides the context into the unit
	// miner, which reports its internal phases through exec.ObserverFrom.
	mineLeaf := func(tctx context.Context, i int) {
		uctx, endUnit := obs.Phase(tctx, o, fmt.Sprintf("unit.%d", i))
		defer endUnit()
		uctx = obs.ObserverInContext(uctx, o)
		t0 := time.Now()
		set, err := opts.mineUnit(uctx, i, leaves[i].DB, res.UnitSupport, opts.classicMaxEdges())
		if set == nil {
			set = make(pattern.Set)
		}
		res.UnitPatterns[i] = set
		res.UnitTimes[i] = time.Since(t0)
		unitErrs[i] = err
	}
	uctx, endStage := obs.Phase(ctx, o, "units")
	err = pool.MapOrderedCtx(uctx, len(leaves), opts.unitOrder(tree), mineLeaf)
	endStage()
	if err != nil {
		return nil, err
	}
	for i, uerr := range unitErrs {
		if uerr == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res.Degraded = append(res.Degraded, fmt.Errorf("unit %d: %w", i, uerr))
		exec.Count(o, "units.degraded", 1)
	}

	// Phase 2b: combine results bottom-up with merge-join. The full
	// database's feature index is built once here and drives the root
	// merge's candidate pruning; inner nodes cover sub-databases and
	// build their own inside MergeContext.
	t0 := time.Now()
	res.Index, err = index.BuildContext(ctx, db, pool, o)
	if err != nil {
		return nil, err
	}
	mctx, endStage := obs.Phase(ctx, o, "merge")
	res.NodeSets = make(map[string]pattern.Set)
	res.Borders = make(map[string]mergejoin.Border)
	chain := &mergeChain{res: res, opts: opts, pool: pool, subKeys: mergejoin.NewSubKeys()}
	res.Patterns, err = chain.solve(mctx, tree.Root, "")
	endStage()
	if err != nil {
		return nil, err
	}
	res.MergeTime = time.Since(t0)
	res.Options = opts
	return res, nil
}

// mergeChain is one run's walk up the partition tree: res supplies the
// unit results and the root's feature index and receives NodeSets,
// Borders and MergeStats. subKeys is the run's sub-pattern key memo:
// the same patterns recur at every node of the tree, so every merge of
// the run shares it. prev and updated are set in incremental mode and
// only read.
type mergeChain struct {
	res     *Result
	opts    Options
	pool    *exec.Pool
	subKeys *mergejoin.SubKeys
	prev    *Result
	updated *pattern.TIDSet
}

// solve recovers the frequent set of a partition-tree node from its
// children (Fig. 11 lines 9-17): leaves return the unit results; internal
// nodes merge-join their children at support ⌈sup/2^level⌉. Merged sets
// and negative borders are recorded by tree path. In incremental mode
// merges reuse the pre-update node sets to limit frequency checks to
// updated transactions, and the pre-update borders to prune candidates
// that are still provably infrequent. Every merge runs on the shared pool
// and observes ctx.
func (m *mergeChain) solve(ctx context.Context, n *partition.Node, path string) (pattern.Set, error) {
	if n.IsLeaf() {
		return m.res.UnitPatterns[n.UnitIndex], nil
	}
	left, err := m.solve(ctx, n.Left, path+"0")
	if err != nil {
		return nil, err
	}
	right, err := m.solve(ctx, n.Right, path+"1")
	if err != nil {
		return nil, err
	}
	border := make(mergejoin.Border)
	cfg := mergejoin.Config{
		MinSupport: ceilDiv(m.opts.MinSupport, 1<<uint(n.Level)),
		MaxEdges:   m.opts.classicMaxEdges(),
		Border:     border,
		Stats:      &m.res.MergeStats,
		Pool:       m.pool,
		SubKeys:    m.subKeys,
		Observer:   m.opts.Observer,
	}
	if path == "" {
		// The root node's database is the full database, so the run's
		// shared feature index applies; inner nodes let MergeContext
		// build one for their sub-database. The root alone is not capped
		// at a growth envelope.
		cfg.Index = m.res.Index
		cfg.MaxEdges = m.opts.MaxEdges
	}
	if m.prev != nil {
		cfg.Old = m.prev.NodeSets[path]
		cfg.OldBorder = m.prev.Borders[path]
		cfg.Updated = m.updated
	}
	nctx, endStage := obs.Phase(ctx, m.opts.Observer, "merge."+nodePathLabel(path))
	set, err := mergejoin.MergeContext(nctx, n.DB, left, right, cfg)
	endStage()
	if err != nil {
		return nil, err
	}
	m.res.NodeSets[path] = set
	m.res.Borders[path] = border
	return set, nil
}

// nodePathLabel names a partition-tree node for stage reporting; the
// root's empty path reads better as "root".
func nodePathLabel(path string) string {
	if path == "" {
		return "root"
	}
	return path
}

func ceilDiv(a, b int) int {
	d := (a + b - 1) / b
	if d < 1 {
		return 1
	}
	return d
}

// AbsoluteSupport converts a fractional support (e.g. 0.04 for the paper's
// 4%) to the absolute count for db, with a floor of 1.
func AbsoluteSupport(db graph.Database, frac float64) int {
	s := int(frac * float64(len(db)))
	if s < 1 {
		return 1
	}
	return s
}
