package index

import (
	"math/rand"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/isomorph"
)

// TestSignatureDominationSound is the soundness property the pruning
// relies on: whenever a target actually contains a pattern, the target's
// signature must dominate the pattern's (no false negatives ever).
func TestSignatureDominationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	admitted, contained := 0, 0
	for i := 0; i < 400; i++ {
		target := graph.RandomConnected(rng, 0, 5+rng.Intn(10), 6+rng.Intn(14), 3, 2)
		pat := graph.RandomConnected(rng, 1, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		dom := SigOf(target).Dominates(SigOf(pat))
		if dom {
			admitted++
		}
		if isomorph.Contains(target, pat) {
			contained++
			if !dom {
				t.Fatalf("iteration %d: containment without signature domination\ntarget %v\npattern %v", i, target, pat)
			}
		}
	}
	if contained == 0 {
		t.Fatal("test generated no containments; weaken the pattern generator")
	}
	if admitted == 400 {
		t.Error("signature domination never filtered anything; suspicious")
	}
}

// TestSignatureDominatesSelf: every graph contains itself.
func TestSignatureDominatesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		g := graph.RandomConnected(rng, 0, 3+rng.Intn(10), 3+rng.Intn(12), 4, 3)
		if !SigOf(g).Dominates(SigOf(g)) {
			t.Fatalf("signature of %v does not dominate itself", g)
		}
	}
}

// TestPostings checks the grouped posting lists against a brute scan.
func TestPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := graph.RandomDatabase(rng, 20, 12, 18, 4, 3)
	ix := Build(db)
	for tid, g := range db {
		lister := ix.Lister(tid)
		for label := -1; label < 6; label++ {
			var want []int
			for v := 0; v < g.VertexCount(); v++ {
				if g.Labels[v] == label {
					want = append(want, v)
				}
			}
			got := lister.VerticesWithLabel(label)
			if len(got) != len(want) {
				t.Fatalf("tid %d label %d: got %v want %v", tid, label, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tid %d label %d: got %v want %v", tid, label, got, want)
				}
			}
		}
	}
}

// TestInvertedIndexExact checks the label and triple bitsets against
// brute-force membership.
func TestInvertedIndexExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := graph.RandomDatabase(rng, 30, 10, 14, 3, 2)
	ix := Build(db)
	for tid, g := range db {
		hasLabel := map[int]bool{}
		for _, l := range g.Labels {
			hasLabel[l] = true
		}
		hasTriple := map[Triple]bool{}
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				if u > e.To {
					continue
				}
				hasTriple[MakeTriple(g.Labels[u], e.Label, g.Labels[e.To])] = true
			}
		}
		for label := 0; label < 3; label++ {
			ts := ix.LabelTIDs(label)
			got := ts != nil && ts.Contains(tid)
			if got != hasLabel[label] {
				t.Fatalf("tid %d label %d: index says %v, graph says %v", tid, label, got, hasLabel[label])
			}
		}
		for tr := range hasTriple {
			ts := ix.TripleTIDs(tr.LA, tr.LE, tr.LB)
			if ts == nil || !ts.Contains(tid) {
				t.Fatalf("tid %d triple %v: missing from inverted index", tid, tr)
			}
		}
	}
}

// TestFrequentEdgesExact compares FrequentEdges against brute-force
// support counting of every distinct 1-edge pattern.
func TestFrequentEdgesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := graph.RandomDatabase(rng, 25, 8, 12, 3, 2)
	ix := Build(db)
	for _, minSup := range []int{1, 3, 8} {
		set := ix.FrequentEdges(minSup)
		for key, p := range set {
			want := isomorph.Support(db, p.Code.Graph())
			if p.Support != want {
				t.Fatalf("minSup %d: %s support %d, brute force %d", minSup, key, p.Support, want)
			}
			if p.TIDs.Count() != want {
				t.Fatalf("minSup %d: %s TID count %d, support %d", minSup, key, p.TIDs.Count(), want)
			}
		}
		// Completeness: every frequent triple surfaced.
		seen := map[Triple]bool{}
		for _, p := range set {
			e := p.Code[0]
			seen[MakeTriple(e.LI, e.LE, e.LJ)] = true
		}
		for tr, ts := range ix.tripleTIDs {
			if ts.Count() >= minSup && !seen[tr] {
				t.Fatalf("minSup %d: frequent triple %v missing from FrequentEdges", minSup, tr)
			}
		}
	}
}

// TestSupportMatchesBruteForce is the core differential property: the
// fully indexed support path agrees with plain VF2 scans.
func TestSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := graph.RandomDatabase(rng, 30, 10, 15, 3, 2)
	ix := Build(db)
	for i := 0; i < 60; i++ {
		pat := graph.RandomConnected(rng, 1000+i, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		if got, want := ix.Support(pat), isomorph.Support(db, pat); got != want {
			t.Fatalf("pattern %d: indexed support %d, brute force %d\n%v", i, got, want, pat)
		}
		tids := rng.Perm(len(db))[:10]
		if got, want := ix.SupportIn(pat, tids), isomorph.SupportIn(db, pat, tids); got != want {
			t.Fatalf("pattern %d: indexed SupportIn %d, brute force %d", i, got, want)
		}
	}
}

// TestUpdateMatchesFreshBuild mutates a slice of transactions and checks
// the patched index behaves identically to one built from scratch.
func TestUpdateMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := graph.RandomDatabase(rng, 24, 9, 13, 3, 2)
	ix := Build(db)

	newDB := make(graph.Database, len(db))
	copy(newDB, db)
	var updated []int
	for tid := 0; tid < len(db); tid += 3 {
		newDB[tid] = graph.RandomConnected(rng, tid, 8+rng.Intn(5), 9+rng.Intn(8), 3, 2)
		updated = append(updated, tid)
	}
	ix.Update(newDB, updated)
	fresh := Build(newDB)

	if got, want := len(ix.tripleTIDs), len(fresh.tripleTIDs); got != want {
		t.Fatalf("triple map size %d after Update, fresh build has %d", got, want)
	}
	for tr, ts := range fresh.tripleTIDs {
		if !ts.Equal(ix.tripleTIDs[tr]) {
			t.Fatalf("triple %v: TIDs %v after Update, fresh %v", tr, ix.tripleTIDs[tr], ts)
		}
	}
	for label, n := range fresh.labelFreq {
		if ix.labelFreq[label] != n {
			t.Fatalf("label %d: freq %d after Update, fresh %d", label, ix.labelFreq[label], n)
		}
	}
	if len(ix.labelFreq) != len(fresh.labelFreq) {
		t.Fatalf("labelFreq size %d after Update, fresh %d", len(ix.labelFreq), len(fresh.labelFreq))
	}
	// Occurrence lists must match entry for entry (same TID order).
	for tr, want := range fresh.occs {
		got := ix.occs[tr]
		if len(got) != len(want) {
			t.Fatalf("triple %v: %d occurrences after Update, fresh %d", tr, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("triple %v occ %d: %+v after Update, fresh %+v", tr, i, got[i], want[i])
			}
		}
	}
	if len(ix.occs) != len(fresh.occs) {
		t.Fatalf("occ map size %d after Update, fresh %d", len(ix.occs), len(fresh.occs))
	}
	// Behavioral equivalence on random patterns.
	for i := 0; i < 40; i++ {
		pat := graph.RandomConnected(rng, 2000+i, 2+rng.Intn(4), 1+rng.Intn(4), 3, 2)
		if got, want := ix.Support(pat), fresh.Support(pat); got != want {
			t.Fatalf("pattern %d: support %d after Update, fresh %d", i, got, want)
		}
		if !ix.SupportTIDs(pat).Equal(fresh.SupportTIDs(pat)) {
			t.Fatalf("pattern %d: supporting TIDs diverge after Update", i)
		}
	}
}

// TestNarrowByFeaturesUpperBound: the narrowed set must cover every true
// supporter (it is an upper bound, never an undercount).
func TestNarrowByFeaturesUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := graph.RandomDatabase(rng, 20, 10, 14, 3, 2)
	ix := Build(db)
	for i := 0; i < 40; i++ {
		pat := graph.RandomConnected(rng, 3000+i, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		cand := ix.CandidateTIDs(pat)
		for tid, g := range db {
			if isomorph.Contains(g, pat) && !cand.Contains(tid) {
				t.Fatalf("pattern %d: supporter %d filtered out by NarrowByFeatures", i, tid)
			}
		}
	}
}

// TestContainsPostedNoAllocs bounds the steady-state allocation of the
// indexed containment path: once the matcher is primed for the target
// size, posted root-candidate selection must not allocate.
func TestContainsPostedNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := graph.RandomDatabase(rng, 8, 16, 24, 3, 2)
	ix := Build(db)
	pat := graph.RandomConnected(rng, 99, 4, 5, 3, 2)
	m := ix.NewMatcher(pat)
	psig := SigOf(pat)
	pass := func() {
		for tid, g := range db {
			if ix.SigDominates(tid, psig) {
				m.ContainsPostedTick(g, ix.Lister(tid), nil)
			}
		}
	}
	pass() // prime the matcher's target-sized scratch
	allocs := testing.AllocsPerRun(100, pass)
	if allocs != 0 {
		t.Errorf("indexed containment allocates %.1f times per database pass; want 0", allocs)
	}
}

// TestSupportEmptyAndMissingFeatures covers the degenerate paths.
func TestSupportEmptyAndMissingFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := graph.RandomDatabase(rng, 10, 8, 10, 2, 2)
	ix := Build(db)
	empty := graph.New(0)
	if got := ix.Support(empty); got != 0 {
		t.Errorf("empty pattern support = %d, want 0", got)
	}
	// A pattern using a label outside the database's universe.
	alien := graph.New(1)
	a := alien.AddVertex(77)
	b := alien.AddVertex(78)
	alien.MustAddEdge(a, b, 0)
	if got := ix.Support(alien); got != 0 {
		t.Errorf("alien-label pattern support = %d, want 0", got)
	}
	if ts := ix.CandidateTIDs(alien); ts.Count() != 0 {
		t.Errorf("alien-label pattern candidates = %d, want 0", ts.Count())
	}
}

// TestCloneIsolatesUpdate: patching a clone must leave the original index
// bit-for-bit untouched (the RCU contract internal/server relies on), and
// the patched clone must behave like a fresh build of the new database.
func TestCloneIsolatesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := graph.RandomDatabase(rng, 20, 9, 13, 3, 2)
	ix := Build(db)
	clone := ix.Clone()

	newDB := make(graph.Database, len(db))
	copy(newDB, db)
	var updated []int
	for tid := 0; tid < len(db); tid += 4 {
		newDB[tid] = graph.RandomConnected(rng, tid, 8+rng.Intn(5), 9+rng.Intn(8), 3, 2)
		updated = append(updated, tid)
	}
	clone.Update(newDB, updated)

	freshOld := Build(db)
	freshNew := Build(newDB)
	for i := 0; i < 40; i++ {
		pat := graph.RandomConnected(rng, 4000+i, 2+rng.Intn(4), 1+rng.Intn(4), 3, 2)
		if got, want := ix.Support(pat), freshOld.Support(pat); got != want {
			t.Fatalf("pattern %d: original support %d after clone update, want %d", i, got, want)
		}
		if !clone.SupportTIDs(pat).Equal(freshNew.SupportTIDs(pat)) {
			t.Fatalf("pattern %d: clone supporting TIDs diverge from fresh build", i)
		}
	}
	// The original's inverted structures must match a fresh pre-update
	// build exactly — not just behaviorally.
	for tr, ts := range freshOld.tripleTIDs {
		if !ts.Equal(ix.tripleTIDs[tr]) {
			t.Fatalf("triple %v: original TIDs changed by clone update", tr)
		}
	}
	if len(ix.tripleTIDs) != len(freshOld.tripleTIDs) {
		t.Fatalf("triple map size changed: %d, want %d", len(ix.tripleTIDs), len(freshOld.tripleTIDs))
	}
	for label, n := range freshOld.labelFreq {
		if ix.labelFreq[label] != n {
			t.Fatalf("label %d: original freq changed to %d, want %d", label, ix.labelFreq[label], n)
		}
	}
	for tr, want := range freshOld.occs {
		got := ix.occs[tr]
		if len(got) != len(want) {
			t.Fatalf("triple %v: original occurrence list changed", tr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("triple %v occ %d: original entry changed", tr, i)
			}
		}
	}
}
