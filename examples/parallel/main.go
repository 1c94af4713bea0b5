// Parallel: PartMiner is inherently parallel — the k units are mined
// independently (§5.1.3). This example mines the same database serially
// and with concurrent unit mining and reports the aggregate vs parallel
// wall-clock split the paper's Figure 15 plots. At every k it also folds
// one update round of 10 % of the graphs into the serial result and
// exits non-zero unless the fold equals a from-scratch mine of the
// updated database, supporting graphs included.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"time"

	"partminer"
)

func main() {
	db := partminer.Generate(partminer.GeneratorConfig{
		D: 500, T: 20, N: 20, L: 200, I: 5, Seed: 31,
	})
	sup := partminer.AbsoluteSupport(db, 0.04)
	updatedDB := db.Clone()
	updated := partminer.ApplyUpdates(updatedDB, partminer.UpdateConfig{Fraction: 0.1, Seed: 31})

	fmt.Println(" k   serial-total   parallel-total   sum(units)   max(unit)   merge   fold")
	var baseline, updatedBaseline partminer.PatternSet
	for _, k := range []int{1, 2, 4, 6} {
		serial, err := partminer.Mine(db, partminer.Options{MinSupport: sup, K: k})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		par, err := partminer.Mine(db, partminer.Options{MinSupport: sup, K: k, Parallel: true})
		if err != nil {
			log.Fatal(err)
		}
		parTotal := time.Since(t0)

		if baseline == nil {
			baseline = serial.Patterns
		} else if !serial.Patterns.Equal(baseline) {
			log.Fatalf("k=%d changed the result", k)
		}
		if !par.Patterns.Equal(baseline) {
			log.Fatal("parallel mode changed the result")
		}

		t0 = time.Now()
		inc, err := partminer.MineIncremental(updatedDB, updated, serial)
		if err != nil {
			log.Fatal(err)
		}
		fold := time.Since(t0)
		if updatedBaseline == nil {
			fresh, err := partminer.Mine(updatedDB, partminer.Options{MinSupport: sup, K: k})
			if err != nil {
				log.Fatal(err)
			}
			updatedBaseline = fresh.Patterns
		}
		if diff := differ(inc.Patterns, updatedBaseline); diff != "" {
			log.Fatalf("k=%d: the fold differs from a from-scratch mine: %s", k, diff)
		}

		var sum, max time.Duration
		for _, d := range serial.UnitTimes {
			sum += d
			if d > max {
				max = d
			}
		}
		fmt.Printf("%2d   %12v   %14v   %10v   %9v   %5v   %v\n",
			k,
			serial.AggregateTime().Round(time.Millisecond),
			parTotal.Round(time.Millisecond),
			sum.Round(time.Millisecond),
			max.Round(time.Millisecond),
			serial.MergeTime.Round(time.Millisecond),
			fold.Round(time.Millisecond))
	}
	fmt.Println("\nall unit counts produced identical pattern sets, and every fold equals a from-scratch mine (verified).")
}

// differ names the first way got differs from want: a missing or extra
// pattern, a support, or a supporting graph.
func differ(got, want partminer.PatternSet) string {
	if !got.Equal(want) {
		return fmt.Sprintf("%d patterns, %d expected, or a support differs", len(got), len(want))
	}
	for key, p := range got {
		if !p.TIDs.Equal(want[key].TIDs) {
			return fmt.Sprintf("pattern %s is supported by graphs %v, expected %v", p.Code, p.TIDs.Slice(), want[key].TIDs.Slice())
		}
	}
	return ""
}
