package query

// differential_test.go pits every indexed support-counting path against
// its unindexed reference over many random databases: the feature index
// is pure acceleration, so any divergence — a support count, a TID bit, a
// query answer — is a bug.

import (
	"math/rand"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

// TestIndexedSupportDifferential runs 50 random databases and checks that
// the feature index's verify loop, over the narrowed candidates and over a
// TID subset, agrees exactly with the plain isomorph scans, bit for bit.
func TestIndexedSupportDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 10+rng.Intn(20), 6+rng.Intn(8), 7+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(3))
		ix := index.Build(db)
		for i := 0; i < 12; i++ {
			var q *graph.Graph
			if i%2 == 0 {
				// Half the queries are cut from a database graph so they
				// have supporters; half are fully random.
				q = queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
				if !q.Connected() || q.EdgeCount() == 0 {
					continue
				}
			} else {
				q = graph.RandomConnected(rng, 500+i, 2+rng.Intn(4), 1+rng.Intn(4), 4, 3)
			}

			wantTIDs := pattern.NewTIDSet(len(db))
			for tid, g := range db {
				if isomorph.Contains(g, q) {
					wantTIDs.Add(tid)
				}
			}
			gotTIDs, _ := ix.Verify(q, ix.CandidateTIDs(q), nil, nil)
			if !gotTIDs.Equal(wantTIDs) {
				t.Fatalf("seed %d query %d: indexed TIDs %v, scan TIDs %v\n%v",
					seed, i, gotTIDs, wantTIDs, q)
			}
			subset := rng.Perm(len(db))[:len(db)/2+1]
			in := pattern.NewTIDSet(len(db))
			for _, tid := range subset {
				in.Add(tid)
			}
			inTIDs, _ := ix.Verify(q, in, nil, nil)
			if got, want := inTIDs.Count(), isomorph.SupportIn(db, q, subset); got != want {
				t.Fatalf("seed %d query %d: indexed SupportIn %d, scan %d", seed, i, got, want)
			}
		}
	}
}

// TestFindDifferential runs 50 random databases through the full query
// pipeline (pattern mining included) and checks Find against Scan.
func TestFindDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		db := graph.RandomDatabase(rng, 12+rng.Intn(16), 6+rng.Intn(8), 7+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(3))
		ix := buildIndex(db, IndexOptions{})
		for i := 0; i < 6; i++ {
			q := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(5))
			if !q.Connected() || q.EdgeCount() == 0 {
				continue
			}
			got, _ := ix.Find(q)
			want := Scan(db, q)
			if len(got) != len(want) {
				t.Fatalf("seed %d query %d: Find %v, Scan %v\n%v", seed, i, got, want, q)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d query %d: Find %v, Scan %v", seed, i, got, want)
				}
			}
		}
	}
}
