package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"partminer/internal/datagen"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/obs"
	"partminer/internal/pattern"
)

// TestDegradedUnitReported makes one unit miner fail, with a partial set,
// under PartMiner, serially and in parallel. The run must stay exact,
// name the failed unit by its unit index in Degraded, and count it once
// as units.degraded. A fold mines no unit, so a fold whose unit miner
// always fails stays exact and degrades nothing.
func TestDegradedUnitReported(t *testing.T) {
	const minSup, k, maxEdges = 3, 4, 3
	db := datagen.Generate(datagen.Config{D: 16, T: 8, N: 4, L: 10, I: 3, Seed: 9, Hubs: 3})
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.3, Seed: 5, N: 4})

	errUnit := errors.New("unit miner failed")
	failing := func(bad int) IndexedUnitMiner {
		return func(ctx context.Context, unit int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
			set, err := gspanUnit(ctx, unit, db, minSup, maxEdges)
			if unit != bad || err != nil {
				return set, err
			}
			partial := make(pattern.Set)
			for key, p := range set {
				if p.Size() == 1 {
					partial[key] = p
				}
			}
			return partial, errUnit
		}
	}
	alwaysFailing := func(context.Context, int, graph.Database, int, int) (pattern.Set, error) {
		return nil, errUnit
	}

	for _, tc := range []struct {
		name  string
		bad   int // the unit named in Degraded; -1 for none
		miner IndexedUnitMiner
		run   func(t *testing.T, opts Options) (*Result, graph.Database)
	}{
		{"mine", 2, failing(2), func(t *testing.T, opts Options) (*Result, graph.Database) {
			res, err := PartMiner(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, db
		}},
		{"fold", -1, alwaysFailing, func(t *testing.T, opts Options) (*Result, graph.Database) {
			prev, err := PartMiner(db, Options{MinSupport: minSup, K: k, MaxEdges: maxEdges, UnitMinerIndexed: gspanUnit})
			if err != nil {
				t.Fatal(err)
			}
			prev.Options = opts
			inc, err := IncPartMiner(newDB, updated, prev)
			if err != nil {
				t.Fatal(err)
			}
			return &inc.Result, newDB
		}},
	} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tc.name, parallel), func(t *testing.T) {
				reg := obs.NewRegistry("")
				opts := Options{MinSupport: minSup, K: k, MaxEdges: maxEdges, Parallel: parallel,
					UnitMinerIndexed: tc.miner, Observer: reg}
				res, resDB := tc.run(t, opts)
				if want := gspan.Mine(resDB, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges}); !res.Patterns.Equal(want) {
					t.Errorf("degraded run is not exact: %v", res.Patterns.Diff(want))
				}
				if tc.bad < 0 {
					if len(res.Degraded) != 0 {
						t.Errorf("Degraded = %v; want none", res.Degraded)
					}
					if got := reg.View().Counters["units.degraded"]; got != 0 {
						t.Errorf("units.degraded = %d; want 0", got)
					}
					return
				}
				if len(res.Degraded) != 1 {
					t.Fatalf("Degraded = %v; want exactly unit %d", res.Degraded, tc.bad)
				}
				if got := res.Degraded[0]; !errors.Is(got, errUnit) || !strings.HasPrefix(got.Error(), fmt.Sprintf("unit %d:", tc.bad)) {
					t.Errorf("Degraded[0] = %q; want unit %d wrapping %q", got, tc.bad, errUnit)
				}
				if got := reg.View().Counters["units.degraded"]; got != 1 {
					t.Errorf("units.degraded = %d; want 1", got)
				}
			})
		}
	}
}
