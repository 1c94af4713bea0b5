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
	// Every transaction is a candidate for the vertexless pattern.
	if n := res.Index.CandidateTIDs(graph.New(0)).Count(); n != len(db) {
		t.Fatalf("Result.Index covers %d transactions, database has %d", n, len(db))
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

// TestMergeCountersAtBenchmarkConfig pins the merge-join's work at the
// benchmark's configuration (D1kT20N20L200I5, seed 7, 4 %, K=2, and a
// K=4 mine): which candidates are generated, how many survive and how
// many isomorphism tests and signature prunes they cost do not depend on
// where a candidate's bound or cover starts. The feature narrowing prunes only
// candidates without a parent — here the unit-seeded ones — since an
// extension candidate's bound was held to the threshold when it was
// generated. The two-edge path filter drops extensions before they
// become candidates, so it moves the candidate count and nothing the
// survivors cost. One 10 % fold over a cloned index pins the incremental
// merge's work the same way: a verify loop that stopped early would
// leave border bounds the fold cannot reuse, and move these numbers. A
// fold filters at generation too, after probing the old border on each
// extension's key, so only 1026 candidates reach the check, where the
// border still rejects the 518 it rejected when it saw every candidate
// first. A fold mines no unit: its unit sets are the mine's minus the
// updated graphs, so the root tests each updated supporter itself (3779
// isomorphism tests, 1446 when the changed units were re-mined). A
// second 10 % fold, chained on the first, is pinned as well: its border
// probe meets the extension entries the first fold recorded, and every
// extension the path filter would drop is rejected by one of them first.
// A one-graph fold, the service's kind, pins what a fold shares.
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
	if len(res.Patterns) != 447 || st.Candidates != 1024 || st.Frequent != 357 || st.IsoTests != 9253 ||
		st.SigPruned != 18247 || st.UnitSeeded != 482 || st.PairPruned != 3939 {
		t.Errorf("patterns %d, candidates %d, frequent %d, iso tests %d, sig-pruned %d, unit-seeded %d, pair-pruned %d; want 447, 1024, 357, 9253, 18247, 482, 3939",
			len(res.Patterns), st.Candidates, st.Frequent, st.IsoTests, st.SigPruned, st.UnitSeeded, st.PairPruned)
	}

	fold := func(prev *Result, seed int64) *IncResult {
		t.Helper()
		updated := prev.Tree.Root.DB.Clone()
		tids := datagen.ApplyUpdates(updated, datagen.UpdateConfig{Fraction: 0.1, Seed: seed})
		return foldOn(t, prev, updated, tids)
	}
	inc := fold(res, 7)
	fst := inc.MergeStats
	if fst.Candidates != 1026 || fst.IsoTests != 3779 || fst.SigPruned != 3149 || fst.BorderPruned != 518 || fst.CarriedTIDs != 27485 || fst.PairPruned != 3939 {
		t.Errorf("fold: candidates %d, iso tests %d, sig-pruned %d, border-pruned %d, carried %d, pair-pruned %d; want 1026, 3779, 3149, 518, 27485, 3939",
			fst.Candidates, fst.IsoTests, fst.SigPruned, fst.BorderPruned, fst.CarriedTIDs, fst.PairPruned)
	}
	sst := fold(&inc.Result, 8).MergeStats
	if sst.Candidates != 1026 || sst.Frequent != 357 || sst.IsoTests != 4643 || sst.SigPruned != 5539 ||
		sst.BorderPruned != 4449 || sst.CarriedTIDs != 26650 || sst.PairPruned != 0 {
		t.Errorf("second fold: candidates %d, frequent %d, iso tests %d, sig-pruned %d, border-pruned %d, carried %d, pair-pruned %d; want 1026, 357, 4643, 5539, 4449, 26650, 0",
			sst.Candidates, sst.Frequent, sst.IsoTests, sst.SigPruned, sst.BorderPruned, sst.CarriedTIDs, sst.PairPruned)
	}
	// One graph updated (tid 137, two update operations), as the service
	// folds: 319 of the 357 multi-edge patterns are shared and carry
	// their supporters, so 231 candidates reach the check (550 when every
	// old pattern was re-seeded and re-checked); the isomorphism tests,
	// the border prunes and the carried TIDs do not move.
	updated := res.Tree.Root.DB.Clone()
	datagen.ApplyUpdates(updated[137:138], datagen.UpdateConfig{Fraction: 1, Seed: 7})
	if ost := foldOn(t, res, updated, []int{137}).MergeStats; ost.Candidates != 231 || ost.Shared != 319 ||
		ost.IsoTests != 38 || ost.BorderPruned != 183 || ost.CarriedTIDs != 30317 {
		t.Errorf("one-graph fold: candidates %d, shared %d, iso tests %d, border-pruned %d, carried %d; want 231, 319, 38, 183, 30317",
			ost.Candidates, ost.Shared, ost.IsoTests, ost.BorderPruned, ost.CarriedTIDs)
	}

	// At K=4 the one merge-join gets all four unit sets at once (3091
	// candidates and 17407 isomorphism tests when the partition tree's
	// inner nodes merged their children first, at ⌈sup/2⌉).
	res4, err := PartMiner(db, Options{MinSupport: sup, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st4 := res4.MergeStats; len(res4.Patterns) != 447 || st4.Candidates != 1184 || st4.IsoTests != 11871 {
		t.Errorf("K=4: patterns %d, candidates %d, iso tests %d; want 447, 1184, 11871",
			len(res4.Patterns), st4.Candidates, st4.IsoTests)
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

// foldOn folds updated (prev's database with the graphs tids changed) on
// a shallow copy of prev with a cloned index, so prev can be folded
// again.
func foldOn(t *testing.T, prev *Result, updated graph.Database, tids []int) *IncResult {
	t.Helper()
	p := *prev
	p.Index = prev.Index.Clone()
	inc, err := IncPartMiner(updated, tids, &p)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}
