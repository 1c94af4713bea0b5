package partminer

import (
	"testing"

	"partminer/internal/adimine"
	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/gaston"
	"partminer/internal/gspan"
	"partminer/internal/pattern"
)

// TestAllMinersAgreeOnGeneratedWorkload is the repository-wide consistency
// check on a realistic (kernel-planted) workload rather than uniform
// random graphs: every miner and every PartMiner configuration must
// produce the same pattern set with identical supports.
func TestAllMinersAgreeOnGeneratedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	db := datagen.Generate(datagen.Config{D: 100, N: 12, T: 14, I: 4, L: 40, Seed: 6})
	sup := core.AbsoluteSupport(db, 0.06)

	want := gspan.Mine(db, gspan.Options{MinSupport: sup})

	check := func(name string, got pattern.Set) {
		t.Helper()
		if !got.Equal(want) {
			diff := got.Diff(want)
			if len(diff) > 8 {
				diff = diff[:8]
			}
			t.Errorf("%s disagrees with gSpan (%d vs %d patterns): %v",
				name, len(got), len(want), diff)
		}
	}

	check("gaston", gaston.Mine(db, gaston.Options{MinSupport: sup}))

	adiSet, err := adimine.Mine(db, adimine.Options{MinSupport: sup})
	if err != nil {
		t.Fatal(err)
	}
	check("adimine", adiSet)

	for _, k := range []int{1, 2, 3, 5} {
		res, err := core.PartMiner(db, core.Options{MinSupport: sup, K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		check("partminer", res.Patterns)
	}
	par, err := core.PartMiner(db, core.Options{MinSupport: sup, K: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	check("partminer/parallel", par.Patterns)

	// Closed/maximal condensation sanity on the agreed set.
	closed := want.Closed()
	maximal := want.Maximal()
	if len(maximal) > len(closed) || len(closed) > len(want) {
		t.Errorf("condensation sizes inverted: %d full, %d closed, %d maximal",
			len(want), len(closed), len(maximal))
	}
}
