package gspan

import (
	"fmt"
	"math/rand"
	"testing"

	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// TestDifferentialSharedPrefixEmbeddings cross-checks the shared-prefix
// embedding machinery against the brute-force reference on 50 seeded
// random databases: the mined sets must agree on keys, supports, AND the
// exact supporting TID bitsets (the TIDs-once emit path derives support
// from the bitset, so a bitset divergence would be invisible to a
// support-only comparison). Gaston shares the extension machinery, so it
// is held to the same oracle. Odd seeds draw from a wider label alphabet,
// where some edge triples are infrequent and the miners' frequent-edge
// filter on extensions has something to drop; both miners reach it
// through extend.Extender.Initial, which records the run's alphabet.
func TestDifferentialSharedPrefixEmbeddings(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			vLabels, eLabels := 3, 2
			if seed%2 == 1 {
				vLabels, eLabels = 5, 3
			}
			db := graph.RandomDatabase(rng, 5+rng.Intn(4), 4+rng.Intn(3), 3+rng.Intn(5), vLabels, eLabels)
			minSup := 2 + rng.Intn(2)
			want := pattern.BruteForce(db, minSup, 4)

			check := func(name string, got pattern.Set) {
				t.Helper()
				if !got.Equal(want) {
					t.Fatalf("%s disagrees with brute force:\n%v", name, got.Diff(want))
				}
				for key, p := range got {
					ref := want[key]
					if p.TIDs == nil {
						t.Fatalf("%s: %s has no TID set", name, p.Code)
					}
					if !p.TIDs.Equal(ref.TIDs) {
						t.Fatalf("%s: %s TIDs %v; brute force says %v", name, p.Code, p.TIDs, ref.TIDs)
					}
					if p.TIDs.Count() != p.Support {
						t.Fatalf("%s: %s support %d disagrees with its own bitset %v", name, p.Code, p.Support, p.TIDs)
					}
				}
			}
			check("gspan", Mine(db, Options{MinSupport: minSup, MaxEdges: 4}))
			check("gaston", gaston.Mine(db, gaston.Options{MinSupport: minSup, MaxEdges: 4}))
		})
	}
}
