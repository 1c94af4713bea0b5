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
// under PartMiner and under an IncPartMiner fold that re-mines that unit,
// serially and in parallel. The run must stay exact, name the failed unit
// by its unit index (on a fold, not by its position among the re-mined
// units) in Degraded, and count it once as units.degraded.
func TestDegradedUnitReported(t *testing.T) {
	const minSup, k, maxEdges = 3, 4, 3
	db := datagen.Generate(datagen.Config{D: 16, T: 8, N: 4, L: 10, I: 3, Seed: 9, Hubs: 3})
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.3, Seed: 5, N: 4})

	mine := func(t *testing.T) *Result {
		res, err := PartMiner(db, Options{MinSupport: minSup, K: k, MaxEdges: maxEdges, UnitMinerIndexed: gspanUnit})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The fold's failing unit is one whose position in ReminedUnits is not
	// its index, so reporting the position would name another unit.
	inc, err := IncPartMiner(newDB, updated, mine(t))
	if err != nil {
		t.Fatal(err)
	}
	foldUnit := -1
	for j, i := range inc.ReminedUnits {
		if j != i {
			foldUnit = i
			break
		}
	}
	if foldUnit < 0 {
		t.Fatalf("ReminedUnits = %v re-mines a prefix of the units; the fold cannot tell index from position", inc.ReminedUnits)
	}

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

	for _, tc := range []struct {
		name string
		bad  int
		run  func(t *testing.T, opts Options) (*Result, graph.Database)
	}{
		{"mine", 2, func(t *testing.T, opts Options) (*Result, graph.Database) {
			res, err := PartMiner(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, db
		}},
		{"fold", foldUnit, func(t *testing.T, opts Options) (*Result, graph.Database) {
			prev := mine(t)
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
					UnitMinerIndexed: failing(tc.bad), Observer: reg}
				res, resDB := tc.run(t, opts)
				if len(res.Degraded) != 1 {
					t.Fatalf("Degraded = %v; want exactly unit %d", res.Degraded, tc.bad)
				}
				if got := res.Degraded[0]; !errors.Is(got, errUnit) || !strings.HasPrefix(got.Error(), fmt.Sprintf("unit %d:", tc.bad)) {
					t.Errorf("Degraded[0] = %q; want unit %d wrapping %q", got, tc.bad, errUnit)
				}
				if want := gspan.Mine(resDB, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges}); !res.Patterns.Equal(want) {
					t.Errorf("degraded run is not exact: %v", res.Patterns.Diff(want))
				}
				if got := reg.View().Counters["units.degraded"]; got != 1 {
					t.Errorf("units.degraded = %d; want 1", got)
				}
			})
		}
	}
}
