// Package partminer is the public facade of a from-scratch Go
// implementation of "A Partition-Based Approach to Graph Mining" (Wang,
// Hsu, Lee, Sheng — ICDE 2006): the PartMiner partition-based frequent
// subgraph miner and its incremental variant IncPartMiner for dynamic
// graph databases, together with the substrates the paper builds on
// (labeled graphs, gSpan canonical codes, the Gaston unit miner and the
// gSpan reference miner, the GraphPart partitioner, a METIS-like
// baseline, an ADI-style disk-based comparator, and the synthetic
// workload generator of the evaluation).
//
// Quick start:
//
//	db := partminer.Generate(partminer.GeneratorConfig{D: 1000, N: 20, T: 20, I: 5, L: 200, Seed: 1})
//	res, err := partminer.Mine(db, partminer.Options{
//		MinSupport: partminer.AbsoluteSupport(db, 0.04), // the paper's 4%
//		K:          4,                                   // number of units
//	})
//	// res.Patterns: canonical DFS code -> *Pattern with exact support.
//
// When the database changes, mine incrementally instead of re-running:
//
//	updated := partminer.ApplyUpdates(db, partminer.UpdateConfig{Fraction: 0.4, Seed: 2})
//	inc, err := partminer.MineIncremental(db, updated, res)
//	// inc.UF / inc.FI / inc.IF classify every pattern's fate.
//
// The deeper layers are importable directly for advanced use:
// internal packages expose the DFS-code machinery (internal/dfscode),
// subgraph isomorphism (internal/isomorph), the unit miner
// (internal/gaston) and its reference (internal/gspan), partitioning (internal/partition),
// the merge-join (internal/mergejoin), and the disk-based baseline
// (internal/adimine) — but everything a typical application needs is
// re-exported here. Results persist as snapshots — the result with its
// database in one versioned, checksummed frame — through the commands:
// `partminer -save`/`-resume` and `partserved -snapshot`/`-restore`.
package partminer

import (
	"context"
	"io"

	"partminer/internal/cluster"
	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
	"partminer/internal/query"
)

// Graph is an undirected labeled graph with integer vertex/edge labels and
// optional per-vertex update frequencies.
type Graph = graph.Graph

// Database is an ordered collection of graphs; a graph's slice index is
// its transaction id for support counting.
type Database = graph.Database

// Pattern is a frequent subgraph: canonical DFS code, exact support, and
// supporting transaction ids.
type Pattern = pattern.Pattern

// PatternSet maps canonical DFS-code keys to patterns.
type PatternSet = pattern.Set

// Options configures Mine; see core.Options for field documentation.
type Options = core.Options

// Result is a full mining outcome (patterns, partition tree, per-unit
// timings), reusable as the baseline for MineIncremental.
type Result = core.Result

// IncResult extends Result with the UF/FI/IF classification of an
// incremental run.
type IncResult = core.IncResult

// Criteria is the GraphPart weight function w(V1) = λ1·avg(ufreq) −
// λ2·|cut|; Bisector is the partitioning strategy interface.
type (
	Criteria = partition.Criteria
	Bisector = partition.Bisector
	// Metis is the METIS-like multilevel bisection baseline.
	Metis = partition.Metis
)

// The paper's three partitioning criteria (§5.1.1).
var (
	Partition1 = partition.Partition1 // isolate updated vertices
	Partition2 = partition.Partition2 // minimize connectivity
	Partition3 = partition.Partition3 // both
)

// GeneratorConfig carries the synthetic-workload parameters of Table 1.
type GeneratorConfig = datagen.Config

// UpdateConfig controls a synthetic update round (§5's three operations).
type UpdateConfig = datagen.UpdateConfig

// UpdateKind selects relabel / add-edge / add-vertex updates.
type UpdateKind = datagen.UpdateKind

// The three update operations of the evaluation, plus edge deletion (an
// extension beyond the paper's update model; opt-in via UpdateConfig.Kinds).
const (
	Relabel    = datagen.Relabel
	AddEdge    = datagen.AddEdge
	AddVertex  = datagen.AddVertex
	RemoveEdge = datagen.RemoveEdge
)

// NewGraph returns an empty graph with the given id.
func NewGraph(id int) *Graph { return graph.New(id) }

// Observer receives execution events (stage timings, work counters)
// from every layer of a mining run; set it via Options.Observer.
type Observer = exec.Observer

// PhaseCollector is a ready-made Observer aggregating the per-phase
// breakdown (partition / unit mining / merge) the paper's §5 tables
// report: the metric registry partserved serves, so View().String()
// renders the table and WritePrometheus the same numbers as exposition
// series.
type PhaseCollector = obs.Registry

// NewPhaseCollector returns an empty, ready-to-use PhaseCollector.
func NewPhaseCollector() *PhaseCollector { return obs.NewRegistry("partminer_") }

// Mine runs PartMiner over the database (paper Fig. 11).
func Mine(db Database, opts Options) (*Result, error) {
	return core.PartMiner(db, opts)
}

// MineContext is Mine with cooperative cancellation: every mining layer
// (unit miners, merge-join, isomorphism search) checks ctx and the run
// returns ctx.Err() promptly once it is cancelled or its deadline
// passes. Serial and parallel runs produce identical pattern sets.
func MineContext(ctx context.Context, db Database, opts Options) (*Result, error) {
	return core.MineContext(ctx, db, opts)
}

// MineIncremental runs IncPartMiner (paper Fig. 12): it updates prev's
// results for the modified database newDB, where updatedTIDs lists the
// indexes of the changed graphs.
func MineIncremental(newDB Database, updatedTIDs []int, prev *Result) (*IncResult, error) {
	return core.IncPartMiner(newDB, updatedTIDs, prev)
}

// MineIncrementalContext is MineIncremental with cooperative
// cancellation, mirroring MineContext.
func MineIncrementalContext(ctx context.Context, newDB Database, updatedTIDs []int, prev *Result) (*IncResult, error) {
	return core.IncMineContext(ctx, newDB, updatedTIDs, prev)
}

// AbsoluteSupport converts a fractional support (0.04 = the paper's 4%)
// into an absolute graph count for db, flooring at 1.
func AbsoluteSupport(db Database, frac float64) int {
	return core.AbsoluteSupport(db, frac)
}

// Generate builds a synthetic database per the Table 1 parameters.
func Generate(cfg GeneratorConfig) Database { return datagen.Generate(cfg) }

// ApplyUpdates mutates db in place per the update configuration and
// returns the updated transaction ids (ascending), ready to feed into
// MineIncremental.
func ApplyUpdates(db Database, cfg UpdateConfig) []int {
	return datagen.ApplyUpdates(db, cfg)
}

// ReadDatabase parses a database in the gSpan-style text format
// ("t # id" / "v id label [ufreq]" / "e u v label").
func ReadDatabase(r io.Reader) (Database, error) { return graph.ReadDatabase(r) }

// WriteDatabase writes a database in the text format.
func WriteDatabase(w io.Writer, db Database) error { return graph.WriteDatabase(w, db) }

// SearchIndex is a subgraph containment index over a database and its
// mined pattern set (see internal/query).
type SearchIndex = query.Index

// NewSearchIndex indexes res — a Mine result over db, or the Result of a
// MineIncremental round over it — for containment search; use
// SearchIndex.Find to answer queries. A query that is a mined pattern is
// answered from its mined TID set, any other is narrowed by the
// database's label/edge TID sets and verified with exact subgraph
// isomorphism. The index keeps its own copy of res's feature index, so a
// later MineIncremental over res, which patches that index in place for
// the new database, leaves the search index answering for db.
func NewSearchIndex(db Database, res *Result) *SearchIndex {
	return query.IndexFromPatterns(db, res.Index.Clone(), res.Patterns, query.IndexOptions{})
}

// SearchScan answers a containment query by scanning the whole database
// with exact subgraph isomorphism — the unindexed baseline for
// SearchIndex.Find.
func SearchScan(db Database, q *Graph) []int { return query.Scan(db, q) }

// WorkerPool is a fleet of unit-mining workers (cmd/partworker) at
// fixed addresses: a cluster coordinator with static membership. Pass
// pool.MineUnit as Options.UnitMinerIndexed (with Options.Parallel) to
// distribute Phase 2a across machines. Unit i goes to the i-th address
// in sorted order; workers keep nothing between mines, so an RPC failure
// sends the unit to the next address, and when no worker answers the
// unit is mined locally — the result stays exact and Result.Degraded
// stays empty; pool.Err() says what went wrong and pool.Counters() how
// often.
type WorkerPool = cluster.Coordinator

// DialWorkers connects to unit-mining workers at the given "host:port"
// addresses. Every address is dialed before it returns, so a
// misconfigured fleet fails fast; Close releases the connections.
func DialWorkers(addrs ...string) (*WorkerPool, error) { return cluster.Dial(addrs...) }
