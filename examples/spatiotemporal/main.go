// Spatiotemporal: the paper's motivating dynamic scenario (§1). A stream
// of updates hits a graph database — relabeled regions, new connections,
// new sites — and IncPartMiner keeps the frequent-pattern set current
// without re-mining from scratch, classifying each pattern's fate as UF
// (unchanged), FI (frequent→infrequent), or IF (infrequent→frequent).
// Every round is checked against a from-scratch mine of the same
// database; the program exits non-zero on the first mismatch.
//
//	go run ./examples/spatiotemporal
package main

import (
	"fmt"
	"log"
	"time"

	"partminer"
)

func main() {
	// Region graphs: vertices are places (labels = place categories),
	// edges are spatial relations. Hot vertices model fast-changing sites.
	db := partminer.Generate(partminer.GeneratorConfig{
		D: 300, T: 18, N: 15, L: 120, I: 4, Seed: 9, HotFraction: 0.15,
	})
	sup := partminer.AbsoluteSupport(db, 0.05)

	t0 := time.Now()
	opts := partminer.Options{
		MinSupport: sup,
		K:          4,
		Bisector:   partminer.Partition3, // isolate hot vertices AND minimize the cut
	}
	res, err := partminer.Mine(db, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial mine: %d patterns in %v\n", len(res.Patterns), time.Since(t0).Round(time.Millisecond))

	// Five rounds of updates arrive over time; each round touches ~25% of
	// the regions, preferring the hot sites.
	for round := 1; round <= 5; round++ {
		updated := partminer.ApplyUpdates(db, partminer.UpdateConfig{
			Fraction: 0.25,
			Seed:     int64(round),
			N:        15,
		})

		t0 = time.Now()
		inc, err := partminer.MineIncremental(db, updated, res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: %3d graphs updated, folded in %v\n",
			round, len(updated), time.Since(t0).Round(time.Millisecond))
		fmt.Printf("         %4d unchanged (UF)  %3d lost (FI)  %3d gained (IF)  -> %d patterns\n",
			len(inc.UF), len(inc.FI), len(inc.IF), len(inc.Patterns))

		if fresh, err := partminer.Mine(db, opts); err != nil || !inc.Patterns.Equal(fresh.Patterns) {
			log.Fatalf("round %d: the fold differs from a from-scratch mine (err: %v)", round, err)
		}

		// Chain the rounds: the incremental result is the next baseline.
		res = &inc.Result
	}
}
