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
// IncPartMiner rebuilds the tree for the updated graphs and replays the
// merges; unlike the paper's, it mines no unit and keeps the last mine's
// unit sets minus the updated graphs.
//
// Execution runs on the shared substrate of internal/exec: MineContext
// and IncMineContext propagate context cancellation into every layer, in
// parallel mode one exec.Pool of GOMAXPROCS width mines the units
// concurrently (the paper's parallel PartMiner, §5.1.3) while the
// partitioning, the index build and the merge-join chain run serially,
// and an optional exec.Observer receives the per-phase breakdown
// (partition / per-unit / merge) the paper's §5 tables report.
package core

import (
	"context"
	"fmt"
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
	// Parallel mines the units concurrently (§5.1.3's parallel mode), at
	// most GOMAXPROCS at a time; everything after the units runs serially
	// either way.
	Parallel bool
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

// mineUnit mines unit i with the configured override, or Gaston, so
// sharded deployments see every unit mine with its identity attached.
func (o Options) mineUnit(ctx context.Context, i int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
	if o.UnitMinerIndexed != nil {
		return o.UnitMinerIndexed(ctx, i, db, minSup, maxEdges)
	}
	return gaston.MineContext(ctx, db, gaston.Options{MinSupport: minSup, MaxEdges: maxEdges})
}

// mineUnits mines every leaf at the reduced support ⌈sup/k⌉, into
// UnitPatterns[i] and UnitTimes[i]: in parallel mode concurrently on a
// pool GOMAXPROCS wide, otherwise in order with no goroutines. Each unit
// opens its own "unit.<i>" phase inside its task, so the span it hangs
// off the ambient trace attributes the work to the right unit even when
// units interleave; the run observer rides the context into the unit
// miner, which reports its internal phases through exec.ObserverFrom. A
// unit miner's error degrades the unit (an empty set when it returned
// none) and is recorded in Degraded under the unit's index.
func (r *Result) mineUnits(ctx context.Context, opts Options, leaves []*partition.Node) error {
	pool := exec.Serial()
	if opts.Parallel {
		pool = exec.NewPool(0)
	}
	o := opts.Observer
	unitErrs := make([]error, len(leaves))
	pctx, endStage := obs.Phase(ctx, o, "units")
	err := pool.MapCtx(pctx, len(leaves), func(tctx context.Context, i int) {
		uctx, endUnit := obs.Phase(tctx, o, fmt.Sprintf("unit.%d", i))
		defer endUnit()
		uctx = obs.ObserverInContext(uctx, o)
		t0 := time.Now()
		set, err := opts.mineUnit(uctx, i, leaves[i].DB, ceilDiv(opts.MinSupport, opts.K), opts.classicMaxEdges())
		if set == nil {
			set = make(pattern.Set)
		}
		r.UnitPatterns[i] = set
		r.UnitTimes[i] = time.Since(t0)
		unitErrs[i] = err
	})
	endStage()
	if err != nil {
		return err
	}
	for i, uerr := range unitErrs {
		if uerr == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.Degraded = append(r.Degraded, fmt.Errorf("unit %d: %w", i, uerr))
		exec.Count(o, "units.degraded", 1)
	}
	return nil
}

// Result carries the mined patterns plus the breakdown the paper's
// evaluation reports: per-unit mining times (for aggregate vs parallel
// runtime, §5.1.3) and the partition tree for reuse by IncPartMiner.
type Result struct {
	// Patterns is the complete frequent-subgraph set of the database.
	Patterns pattern.Set
	// Tree is the partition tree built in Phase 1.
	Tree *partition.Tree
	// UnitPatterns[i] is the frequent set mined in unit i at UnitSupport;
	// after a fold, the last mine's set minus the TIDs folds updated.
	UnitPatterns []pattern.Set
	// UnitSupport is the reduced threshold the units were mined at.
	UnitSupport int
	// UnitTimes[i] is the wall time of mining unit i; zero after a fold,
	// which mines no unit.
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
	// too (cancellation, in practice); a dead fleet is in its Err(). A
	// fold mines no unit, so it degrades none: this is empty after one.
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

	// fingerprints[tid] is the Fingerprint of graph tid as this run saw
	// it (LoadSnapshot takes them from the loaded database), so a fold
	// can check every unlisted graph, even one mutated in place behind a
	// shared pointer.
	fingerprints []uint64
	// subKeys is the run's sub-pattern key memo. It maps a canonical key
	// to a pure function of that key, so every fold chained on this
	// result reuses it; a loaded Result has none and its first fold
	// starts a fresh one. Carried across folds it grows with the keys
	// the frequent set drifts through (619 entries after the benchmark
	// mine, 623 after 200 chained 1 % folds; 10 090 after 3 000 folds
	// that each move 10 graphs to unseen labels), so its bound,
	// mergejoin's maxSubKeyEntries, is sized for a long-lived chain.
	subKeys *mergejoin.SubKeys
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
	if err := res.mineUnits(ctx, opts, leaves); err != nil {
		return nil, err
	}

	// Phase 2b: combine results bottom-up with merge-join. The full
	// database's feature index is built once here and drives the root
	// merge's candidate pruning; inner nodes cover sub-databases and
	// build their own inside MergeContext.
	t0 := time.Now()
	res.Index, err = index.BuildContext(ctx, db, o)
	if err != nil {
		return nil, err
	}
	mctx, endStage := obs.Phase(ctx, o, "merge")
	res.NodeSets = make(map[string]pattern.Set)
	res.Borders = make(map[string]mergejoin.Border)
	res.subKeys = mergejoin.NewSubKeys()
	chain := &mergeChain{res: res, opts: opts}
	res.Patterns, err = chain.solve(mctx, tree.Root, "")
	endStage()
	if err != nil {
		return nil, err
	}
	res.MergeTime = time.Since(t0)
	res.Options = opts
	res.fingerprints = fingerprints(db)
	return res, nil
}

// mergeChain is one run's walk up the partition tree: res supplies the
// unit results, the root's feature index and the sub-pattern key memo
// (the same patterns recur at every node of the tree, so every merge of
// the run shares it) and receives NodeSets, Borders and MergeStats. prev
// and updated are set in incremental mode and only read.
type mergeChain struct {
	res     *Result
	opts    Options
	prev    *Result
	updated *pattern.TIDSet
}

// solve recovers the frequent set of a partition-tree node from its
// children (Fig. 11 lines 9-17): leaves return the unit results; internal
// nodes merge-join their children at support ⌈sup/2^level⌉. Merged sets
// and negative borders are recorded by tree path. In incremental mode
// merges reuse the pre-update node sets to limit frequency checks to
// updated transactions, and the pre-update borders to prune candidates
// that are still provably infrequent. Every merge observes ctx.
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
		SubKeys:    m.res.subKeys,
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

// fingerprints returns the Fingerprint of every graph of db, by TID.
func fingerprints(db graph.Database) []uint64 {
	fps := make([]uint64, len(db))
	for tid, g := range db {
		fps[tid] = g.Fingerprint()
	}
	return fps
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
