package core

import (
	"context"
	"testing"
	"time"

	"partminer/internal/datagen"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/isomorph"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// TestStrategyDifferential50Seeds is the strategy-exactness contract:
// over 50 seeded databases (alternating the classic Kuramochi & Karypis
// shape and the hub-heavy power-law shape), every registered partition
// strategy must yield a pattern set bit-identical — keys, supports, and
// TID bitsets — to direct gSpan mining of the whole database. Strategies
// are free to cut anywhere precisely because the merge-join re-derives
// exactness from the database; this test is what keeps that claim true
// as strategies are added.
func TestStrategyDifferential50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed differential is slow; skipped with -short")
	}
	names := partition.Names()
	for seed := 0; seed < 50; seed++ {
		cfg := datagen.Config{D: 14, T: 7, N: 4, L: 10, I: 3, Seed: int64(seed)}
		if seed%2 == 1 {
			cfg.Hubs = 2
		}
		db := datagen.Generate(cfg)
		minSup := 3
		want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: 4})
		for _, name := range names {
			p, err := partition.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := PartMiner(db, Options{MinSupport: minSup, K: 3, MaxEdges: 4, Bisector: p})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			diffSets(t, seed, name, want, res.Patterns)
			if res.PartitionQuality.Strategy != name {
				t.Errorf("seed %d %s: result quality names strategy %q", seed, name, res.PartitionQuality.Strategy)
			}
		}
	}
}

// diffSets asserts key-, support-, and TID-level equality.
func diffSets(t *testing.T, seed int, name string, want, got pattern.Set) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("seed %d %s: %d patterns; gSpan found %d (diff %v)",
			seed, name, len(got), len(want), want.Diff(got))
		return
	}
	for key, wp := range want {
		gp, ok := got[key]
		if !ok {
			t.Errorf("seed %d %s: missing pattern %s", seed, name, wp.Code)
			continue
		}
		if gp.Support != wp.Support {
			t.Errorf("seed %d %s: %s support %d; want %d", seed, name, wp.Code, gp.Support, wp.Support)
		}
		if wp.TIDs == nil || gp.TIDs == nil || !wp.TIDs.Equal(gp.TIDs) {
			t.Errorf("seed %d %s: %s TID bitsets differ", seed, name, wp.Code)
		}
	}
}

// TestDecompDifferential50Seeds is the exactness contract of the growth
// envelope: over the same 50 seeded databases, a run whose unit miners
// stop at GrowthEnvelope edges — the root merge-join extending alone from
// there to MaxEdges — must produce a pattern set bit-identical to direct
// gSpan mining at MaxEdges. Every beyond-envelope pattern's support is
// also recounted by brute-force isomorphism over the database, so the
// reference itself is cross-checked.
func TestDecompDifferential50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed differential is slow; skipped with -short")
	}
	const minSup, maxEdges, envelope = 3, 4, 2
	var allLarge int64
	for seed := 0; seed < 50; seed++ {
		cfg := datagen.Config{D: 14, T: 7, N: 4, L: 10, I: 3, Seed: int64(seed)}
		if seed%2 == 1 {
			cfg.Hubs = 2
		}
		db := datagen.Generate(cfg)
		want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
		res, err := PartMiner(db, Options{MinSupport: minSup, K: 2, MaxEdges: maxEdges, GrowthEnvelope: envelope})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		diffSets(t, seed, "envelope", want, res.Patterns)
		requireUnitsCapped(t, res, envelope)
		var large int64
		for _, p := range res.Patterns {
			if p.Size() <= envelope {
				continue
			}
			large++
			pg := p.Code.Graph()
			truth := pattern.NewTIDSet(len(db))
			for tid, g := range db {
				if isomorph.Contains(g, pg) {
					truth.Add(tid)
				}
			}
			if truth.Count() != p.Support || !truth.Equal(p.TIDs) {
				t.Errorf("seed %d: %s reported support %d differs from brute-force %d",
					seed, p.Code, p.Support, truth.Count())
			}
		}
		// Sanity: what was mined past the envelope went through the
		// merge-join's candidate count.
		if res.MergeStats.Candidates < large {
			t.Errorf("seed %d: %d patterns past the envelope, %d merge candidates", seed, large, res.MergeStats.Candidates)
		}
		allLarge += large
	}
	if allLarge == 0 {
		t.Error("no seed has a pattern past the envelope")
	}
}

// requireUnitsCapped fails unless every unit stopped at the envelope.
func requireUnitsCapped(t *testing.T, res *Result, envelope int) {
	t.Helper()
	for i, set := range res.UnitPatterns {
		for _, p := range set {
			if p.Size() > envelope {
				t.Fatalf("unit %d mined %s past the %d-edge envelope", i, p.Code, envelope)
			}
		}
	}
}

// TestDecompCancellation pins cooperative cancellation with the envelope
// engaged: a pre-cancelled context aborts the run with the context error.
func TestDecompCancellation(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 14, T: 7, N: 4, L: 10, I: 3, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MineContext(ctx, db, Options{MinSupport: 3, K: 2, MaxEdges: 4, GrowthEnvelope: 2})
	if err == nil {
		t.Fatal("cancelled mine returned nil error")
	}
}

// TestEnvelopeOptionEdges: -maxedges 0 is unbounded, so an envelope below
// it still caps the units; K=1 has no merge-join to continue, so the one
// unit mines every size; and the paper's literal joins, which take a
// side's (E+1)-edge patterns from its unit results, are refused rather
// than silently incomplete.
func TestEnvelopeOptionEdges(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 14, T: 7, N: 4, L: 10, I: 3, Seed: 4})
	want := gspan.Mine(db, gspan.Options{MinSupport: 4})
	res, err := PartMiner(db, Options{MinSupport: 4, K: 2, GrowthEnvelope: 2})
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, 4, "envelope, unbounded", want, res.Patterns)
	requireUnitsCapped(t, res, 2)
	res, err = PartMiner(db, Options{MinSupport: 4, K: 1, GrowthEnvelope: 2})
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, 4, "envelope, K=1", want, res.Patterns)
	if _, err := PartMiner(db, Options{MinSupport: 4, K: 2, MaxEdges: 4, GrowthEnvelope: 2, StrictPaperJoin: true}); err == nil {
		t.Error("StrictPaperJoin with a growth envelope was accepted")
	}
}

// TestStrategyDifferentialParallel spot-checks that the identity also
// holds in parallel mode with skew-aware scheduling active (ordering
// must never leak into results) on a handful of the same seeds.
func TestStrategyDifferentialParallel(t *testing.T) {
	for seed := 0; seed < 4; seed++ {
		cfg := datagen.Config{D: 14, T: 7, N: 4, L: 10, I: 3, Seed: int64(seed), Hubs: 2}
		db := datagen.Generate(cfg)
		want := gspan.Mine(db, gspan.Options{MinSupport: 3, MaxEdges: 4})
		for _, name := range partition.Names() {
			p, _ := partition.ByName(name)
			res, err := PartMiner(db, Options{MinSupport: 3, K: 3, MaxEdges: 4, Bisector: p, Parallel: true, Workers: 2})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			diffSets(t, seed, name, want, res.Patterns)
		}
	}
}

// TestScheduleOrderDoesNotChangeResults pins the scheduler contract
// directly: cost-first and index-order submission produce identical
// results, with and without a warm cost profile.
func TestScheduleOrderDoesNotChangeResults(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 16, T: 8, N: 4, L: 10, I: 3, Seed: 9, Hubs: 3})
	base := Options{MinSupport: 3, K: 4, MaxEdges: 4, Parallel: true, Workers: 2}
	ordered, err := PartMiner(db, base)
	if err != nil {
		t.Fatal(err)
	}
	indexOrder := base
	indexOrder.ScheduleIndexOrder = true
	plain, err := PartMiner(db, indexOrder)
	if err != nil {
		t.Fatal(err)
	}
	if !ordered.Patterns.Equal(plain.Patterns) {
		t.Errorf("scheduling order changed results: %v", ordered.Patterns.Diff(plain.Patterns))
	}
	warm := base
	warm.UnitCosts = ordered.UnitTimes
	reprofiled, err := PartMiner(db, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !ordered.Patterns.Equal(reprofiled.Patterns) {
		t.Errorf("cost profile changed results: %v", ordered.Patterns.Diff(reprofiled.Patterns))
	}
}

// TestUnitOrderPolicy unit-tests the order computation itself.
func TestUnitOrderPolicy(t *testing.T) {
	tree := &partition.Tree{
		Units:   make([]graph.Database, 3),
		Quality: partition.Quality{UnitEdges: []int{5, 20, 10}},
	}
	order := (Options{}).unitOrder(tree)
	wantOrder := []int{1, 2, 0}
	for i, w := range wantOrder {
		if order[i] != w {
			t.Fatalf("edge-count order = %v; want %v", order, wantOrder)
		}
	}
	// Measured costs override the static estimate.
	costs := Options{UnitCosts: []time.Duration{30, 10, 20}}
	order = costs.unitOrder(tree)
	wantOrder = []int{0, 2, 1}
	for i, w := range wantOrder {
		if order[i] != w {
			t.Fatalf("cost order = %v; want %v", order, wantOrder)
		}
	}
	// Index-order escape hatch and the no-signal case both fall back to
	// nil (index order).
	if o := (Options{ScheduleIndexOrder: true, UnitCosts: []time.Duration{30, 10, 20}}).unitOrder(tree); o != nil {
		t.Errorf("ScheduleIndexOrder should disable ordering, got %v", o)
	}
	flat := &partition.Tree{Units: make([]graph.Database, 3), Quality: partition.Quality{UnitEdges: []int{4, 4, 4}}}
	if o := (Options{}).unitOrder(flat); o != nil {
		t.Errorf("uniform costs should keep index order, got %v", o)
	}
}

// TestParallelTimeBoundedModel pins ParallelTime's serial-run fallback:
// unbounded (paper) model without a worker bound, list-scheduling
// makespan in scheduler order with one.
func TestParallelTimeBoundedModel(t *testing.T) {
	tree := &partition.Tree{
		Units:   make([]graph.Database, 4),
		Quality: partition.Quality{UnitEdges: []int{1, 1, 1, 1}},
	}
	times := []time.Duration{10, 10, 10, 30}
	costs := []time.Duration{10, 10, 10, 30}

	// No worker bound: the paper's unbounded model — the slowest unit.
	unbounded := &Result{Tree: tree, UnitTimes: times}
	if got := unbounded.ParallelTime(); got != 30 {
		t.Errorf("unbounded model = %v; want 30", got)
	}

	// W=2, index order: the 30 starts last on a worker that already did
	// 10+10, so the makespan is 40.
	index := &Result{Tree: tree, UnitTimes: times,
		Options: Options{Workers: 2, UnitCosts: costs, ScheduleIndexOrder: true}}
	if got := index.ParallelTime(); got != 40 {
		t.Errorf("index-order bounded model = %v; want 40", got)
	}

	// W=2, cost-first: the 30 starts first and the three 10s pack on the
	// other worker — makespan 30. This is the gap the scheduler exists
	// for.
	sched := &Result{Tree: tree, UnitTimes: times,
		Options: Options{Workers: 2, UnitCosts: costs}}
	if got := sched.ParallelTime(); got != 30 {
		t.Errorf("cost-first bounded model = %v; want 30", got)
	}

	// A measured concurrent phase always wins over the model.
	measured := &Result{Tree: tree, UnitTimes: times, UnitsWall: 77,
		Options: Options{Workers: 2, UnitCosts: costs}}
	if got := measured.ParallelTime(); got != 77 {
		t.Errorf("measured UnitsWall = %v; want 77", got)
	}
}
