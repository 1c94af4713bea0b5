package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

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
// unit mines every size.
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
}

// TestStrategyDifferentialParallel spot-checks that the identity also
// holds in parallel mode (ordering must never leak into results) on a
// handful of the same seeds.
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

// TestUnitsMineInIndexOrder pins the unit submission order: with a
// serial pool PartMiner mines units 0…K−1 in turn, and IncPartMiner mines
// exactly its ReminedUnits, ascending.
func TestUnitsMineInIndexOrder(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 16, T: 8, N: 4, L: 10, I: 3, Seed: 9, Hubs: 3})
	var calls []int
	opts := Options{MinSupport: 3, K: 4, MaxEdges: 3,
		UnitMinerIndexed: func(ctx context.Context, unit int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
			calls = append(calls, unit)
			return gspanUnit(ctx, unit, db, minSup, maxEdges)
		}}
	prev, err := PartMiner(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(calls, want) {
		t.Errorf("PartMiner mined units in order %v; want %v", calls, want)
	}
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.3, Seed: 5, N: 4})
	calls = nil
	inc, err := IncPartMiner(newDB, updated, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.ReminedUnits) < 2 || !sort.IntsAreSorted(inc.ReminedUnits) {
		t.Fatalf("ReminedUnits = %v; want at least two units, ascending", inc.ReminedUnits)
	}
	if !reflect.DeepEqual(calls, inc.ReminedUnits) {
		t.Errorf("IncPartMiner mined units in order %v; want ReminedUnits %v", calls, inc.ReminedUnits)
	}
}
