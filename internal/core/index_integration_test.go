package core

import (
	"math/rand"
	"testing"

	"partminer/internal/datagen"
	"partminer/internal/graph"
	"partminer/internal/gspan"
)

// TestPartMinerIndexPruning checks the run-level feature index actually
// works: the result carries it, the merge-join consulted it (pruned
// candidates by triple bitsets and transactions by signature domination),
// and the mined set is still exact.
func TestPartMinerIndexPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := graph.RandomDatabase(rng, 10, 7, 10, 3, 2)
	sup := 3
	res, err := PartMiner(db, Options{MinSupport: sup, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index == nil {
		t.Fatal("Result.Index is nil; the run must build the database feature index")
	}
	if res.Index.Len() != len(db) {
		t.Fatalf("Result.Index covers %d transactions, database has %d", res.Index.Len(), len(db))
	}
	if res.MergeStats.SigPruned == 0 {
		t.Error("MergeStats.SigPruned = 0; signature domination pruned nothing on the integration workload")
	}
	if res.MergeStats.TriplePruned == 0 {
		t.Error("MergeStats.TriplePruned = 0; triple-bitset narrowing pruned nothing on the integration workload")
	}
	want := gspan.Mine(db, gspan.Options{MinSupport: sup, MaxEdges: 4})
	if !res.Patterns.Equal(want) {
		t.Fatalf("indexed PartMiner diverges from gSpan: %v", res.Patterns.Diff(want))
	}
}

// TestIncPartMinerReusesIndex checks the incremental path patches the
// previous run's index in place rather than rebuilding, and stays exact.
func TestIncPartMinerReusesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := graph.RandomDatabase(rng, 10, 7, 10, 3, 2)
	prev, err := PartMiner(db, Options{MinSupport: 3, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	prevIx := prev.Index
	newDB := make(graph.Database, len(db))
	copy(newDB, db)
	updated := []int{1, 4, 7}
	for _, tid := range updated {
		newDB[tid] = graph.RandomConnected(rng, tid, 7, 10, 3, 2)
	}
	inc, err := IncPartMiner(newDB, updated, prev)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Index != prevIx {
		t.Error("incremental run rebuilt the feature index instead of patching the previous one")
	}
	want := gspan.Mine(newDB, gspan.Options{MinSupport: 3, MaxEdges: 4})
	if !inc.Patterns.Equal(want) {
		t.Fatalf("incremental indexed run diverges from gSpan: %v", inc.Patterns.Diff(want))
	}
}

// TestMergeCountersAtBenchmarkConfig pins the root merge's work at the
// benchmark's configuration (D1kT20N20L200I5, seed 7, 4 %, K=2): which
// candidates are generated, how many survive and how many isomorphism
// tests they cost do not depend on where a candidate's bound or cover
// starts. The feature narrowing prunes only candidates without a parent —
// here the unit-seeded ones — since an extension candidate's bound was
// held to the threshold when it was generated.
func TestMergeCountersAtBenchmarkConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the 1000-graph benchmark database; skipped with -short")
	}
	db := datagen.Generate(datagen.Config{D: 1000, T: 20, N: 20, L: 200, I: 5, Seed: 7})
	sup := AbsoluteSupport(db, 0.04)
	res, err := PartMiner(db, Options{MinSupport: sup, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.MergeStats
	if len(res.Patterns) != 447 || st.Candidates != 4938 || st.Frequent != 357 || st.IsoTests != 9253 || st.UnitSeeded != 482 {
		t.Errorf("patterns %d, candidates %d, frequent %d, iso tests %d, unit-seeded %d; want 447, 4938, 357, 9253, 482",
			len(res.Patterns), st.Candidates, st.Frequent, st.IsoTests, st.UnitSeeded)
	}
	narrowedOut := make(map[string]bool)
	for _, unit := range res.UnitPatterns {
		for key, p := range unit {
			if p.Size() > 1 && res.Index.CandidateTIDs(p.Code.Graph()).Count() < sup {
				narrowedOut[key] = true
			}
		}
	}
	if st.TriplePruned != int64(len(narrowedOut)) || st.TriplePruned == 0 {
		t.Errorf("triple_pruned = %d; the feature narrowing rejects %d unit patterns", st.TriplePruned, len(narrowedOut))
	}
}
