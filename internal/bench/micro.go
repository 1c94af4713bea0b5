package bench

// micro.go hosts the bodies of the micro-benchmark families the
// repository's benchmark (go run ./benchmark) has no rung for: no
// workload isolates canonicalisation or the TID kernels, and none
// engages the growth envelope. The root bench_test.go runs them under
// `go test -bench`; `make bench-smoke` runs each for one iteration.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"partminer/internal/core"
	"partminer/internal/dfscode"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// BenchMinDFSCode canonicalizes a pool of random connected graphs.
func BenchMinDFSCode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	graphs := make([]*graph.Graph, 64)
	for i := range graphs {
		graphs[i] = graph.RandomConnected(rng, i, 8, 12, 4, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dfscode.MinCode(graphs[i%len(graphs)]) == nil {
			b.Fatal("nil code")
		}
	}
}

// tidKernelSetup builds the shared operand sets for the TID-kernel
// families: eight bitsets over a 64k-transaction universe, mirroring a
// cover-pruner upper-bound probe — the two leading operands are the
// most selective (the feature-narrowed candidate set and the parent's
// TIDs, ~6% density), the rest are piece TID sets (~12%). Selective
// operands leading the list is the kernel's favourable case: it is
// the regime where the fused kernel's per-word early break skips most
// of the operand tail (cached — both families must intersect identical
// operands).
func tidKernelSetup() {
	tidKernelOnce.Do(func() {
		const universe = 1 << 16
		rng := rand.New(rand.NewSource(17))
		tidKernelSets = make([]*pattern.TIDSet, 8)
		for i := range tidKernelSets {
			odds := 8 // piece TID sets: ~12%
			if i < 2 {
				odds = 16 // narrowed set, parent TIDs: ~6%
			}
			s := pattern.NewTIDSet(universe)
			for tid := 0; tid < universe; tid++ {
				if rng.Intn(odds) == 0 {
					s.Add(tid)
				}
			}
			tidKernelSets[i] = s
		}
	})
}

var (
	tidKernelOnce sync.Once
	tidKernelSets []*pattern.TIDSet
)

// BenchTIDKernelsFused measures the fused multi-way intersect+popcount
// kernel (pattern.IntersectCountMulti) merge-join's cover pruner bounds
// candidate support with: one pass over the operands' words, allocating
// nothing and short-circuiting strips that hit zero.
func BenchTIDKernelsFused(b *testing.B) {
	tidKernelSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pattern.IntersectCountMulti(tidKernelSets) > tidKernelSets[0].Count() {
			b.Fatal("intersection exceeds an operand")
		}
	}
}

// BenchTIDKernelsChained measures the same 8-way intersection cardinality
// through the pre-kernel composition — clone the first operand, chain
// pairwise IntersectWith, then Count: one allocation plus k passes over
// the words where the fused kernel makes one.
func BenchTIDKernelsChained(b *testing.B) {
	tidKernelSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := tidKernelSets[0].Clone()
		for _, s := range tidKernelSets[1:] {
			acc.IntersectWith(s)
		}
		if acc.Count() > tidKernelSets[0].Count() {
			b.Fatal("intersection exceeds an operand")
		}
	}
}

// BroomDB returns the growth-envelope dataset: identical copies of a
// "broom" — two centers joined by an edge, six uniform-label leaves on
// each, 13 edges per graph. Every label is 0, so patterns have massive
// embedding multiplicity (choosing and ordering leaves), which is exactly
// the regime where edge-by-edge growth drowns in duplicate extensions
// while merge-join's candidate levels pay one containment check per
// candidate per transaction.
func BroomDB() graph.Database {
	db := make(graph.Database, 30)
	for tid := range db {
		g := graph.New(tid)
		c0 := g.AddVertex(0)
		c1 := g.AddVertex(0)
		g.MustAddEdge(c0, c1, 0)
		for i := 0; i < 6; i++ {
			g.MustAddEdge(c0, g.AddVertex(0), 0)
			g.MustAddEdge(c1, g.AddVertex(0), 0)
		}
		db[tid] = g
	}
	return db
}

// broomTarget is the acceptance floor: the envelope family must
// reach patterns of at least this many edges on every iteration.
const broomTarget = 10

// BenchDecompMineDecomp runs the full PartMiner pipeline with the growth
// envelope at 4: units to 4 edges, then the merge-join alone up to 12, asserting a >=10-edge pattern comes out.
// Compare with BenchDecompMineEdgeGrowth — pure edge growth on the same
// database and target, which hits the 2-second cutoff.
func BenchDecompMineDecomp(b *testing.B) {
	db := BroomDB()
	opts := core.Options{MinSupport: len(db), K: 2, MaxEdges: 12, GrowthEnvelope: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.PartMiner(db, opts)
		if err != nil {
			b.Fatal(err)
		}
		largest := 0
		for _, p := range res.Patterns {
			if p.Size() > largest {
				largest = p.Size()
			}
		}
		if largest < broomTarget {
			b.Fatalf("the envelope run reached only %d-edge patterns (want >= %d)", largest, broomTarget)
		}
	}
}

// broomCutoff bounds one edge-growth attempt. A deadline hit counts as a
// completed op: the family reports how long edge growth runs before it
// is cut off, a lower bound on its true cost.
const broomCutoff = 2 * time.Second

// BenchDecompMineEdgeGrowth attempts the same 12-edge target by pure
// edge-by-edge growth (Gaston) under a 2-second cutoff per attempt.
func BenchDecompMineEdgeGrowth(b *testing.B) {
	db := BroomDB()
	sup := len(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), broomCutoff)
		_, err := gaston.MineContext(ctx, db, gaston.Options{MinSupport: sup, MaxEdges: 12})
		cancel()
		if err != nil && ctx.Err() == nil {
			b.Fatal(err)
		}
	}
}
