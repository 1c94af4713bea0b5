// Benchmarks regenerating the paper's evaluation (§5): one benchmark per
// figure, each producing the full table once per iteration through
// internal/bench (run `go run ./cmd/benchrunner -fig all` to see the
// printed tables), plus micro-benchmarks for the load-bearing substrates.
package partminer

import (
	"io"
	"testing"

	"partminer/internal/adimine"
	"partminer/internal/bench"
	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/graph"
)

// smallScale keeps the per-iteration figure sweeps affordable under
// `go test -bench`; cmd/benchrunner uses the larger default scale.
var smallScale = bench.Scale{D50k: 200, D100k: 250, MaxEdges: 4}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure(name, smallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			t.Fprint(io.Discard)
		}
	}
}

// Figure 13(a): partitioning criteria on static data.
func BenchmarkFig13aPartitionCriteriaStatic(b *testing.B) { benchFigure(b, "13a") }

// Figure 13(b): partitioning criteria under updates.
func BenchmarkFig13bPartitionCriteriaDynamic(b *testing.B) { benchFigure(b, "13b") }

// Figure 14(a): runtime vs minimum support, static.
func BenchmarkFig14aMinSupStatic(b *testing.B) { benchFigure(b, "14a") }

// Figure 14(b): runtime vs minimum support, dynamic.
func BenchmarkFig14bMinSupDynamic(b *testing.B) { benchFigure(b, "14b") }

// Figure 15(a): number of units k, static.
func BenchmarkFig15aUnitsStatic(b *testing.B) { benchFigure(b, "15a") }

// Figure 15(b): number of units k, dynamic.
func BenchmarkFig15bUnitsDynamic(b *testing.B) { benchFigure(b, "15b") }

// Figure 16(a): scalability in T.
func BenchmarkFig16aVaryT(b *testing.B) { benchFigure(b, "16a") }

// Figure 16(b): scalability in D.
func BenchmarkFig16bVaryD(b *testing.B) { benchFigure(b, "16b") }

// Figure 17(a): relabeling updates.
func BenchmarkFig17aRelabelUpdates(b *testing.B) { benchFigure(b, "17a") }

// Figure 17(b): structural updates.
func BenchmarkFig17bStructuralUpdates(b *testing.B) { benchFigure(b, "17b") }

// ---- substrate micro-benchmarks ----
//
// Only what the repository's benchmark (go run ./benchmark) has no rung
// for: canonicalisation, the TID kernels, the growth envelope, the
// ADIMINE baseline, and IncPartMiner at a 40 % round.

func benchDB(n int) graph.Database {
	return datagen.Generate(datagen.Config{D: n, T: 20, N: 20, L: 200, I: 5, Seed: 7})
}

func BenchmarkMinDFSCode(b *testing.B) { bench.BenchMinDFSCode(b) }

func BenchmarkADIMine(b *testing.B) {
	db := benchDB(200)
	sup := core.AbsoluteSupport(db, 0.04)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adimine.Mine(db, adimine.Options{MinSupport: sup}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fused multi-way TID intersection kernel vs the chained pairwise
// composition it replaces (clone + IntersectWith chain + Count).
func BenchmarkTIDKernels(b *testing.B) {
	b.Run("Fused", bench.BenchTIDKernelsFused)
	b.Run("Chained", bench.BenchTIDKernelsChained)
}

// Large-pattern mining through the growth envelope (unit miners to 4
// edges, the root merge-join alone to the 12-edge target) vs pure edge
// growth on the same broom dataset under a 2s cutoff.
func BenchmarkDecompMine(b *testing.B) {
	b.Run("Decomp", bench.BenchDecompMineDecomp)
	b.Run("EdgeGrowth", bench.BenchDecompMineEdgeGrowth)
}

func BenchmarkIncPartMiner(b *testing.B) {
	db := benchDB(200)
	sup := core.AbsoluteSupport(db, 0.04)
	prev, err := core.PartMiner(db, core.Options{MinSupport: sup, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.4, Seed: 3, N: 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IncPartMiner(newDB, updated, prev); err != nil {
			b.Fatal(err)
		}
	}
}
