package index

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
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
		dom := sigOf(target).dominates(sigOf(pat))
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
		if !sigOf(g).dominates(sigOf(g)) {
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
		lister := &ix.posts[tid]
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
			ts := ix.labelTIDs[label]
			got := ts != nil && ts.Contains(tid)
			if got != hasLabel[label] {
				t.Fatalf("tid %d label %d: index says %v, graph says %v", tid, label, got, hasLabel[label])
			}
		}
		for tr := range hasTriple {
			ts := ix.tripleTIDs[tr]
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

// supporters runs the read path's containment pipeline over the whole
// index: feature narrowing, then the verify loop.
func supporters(ix *FeatureIndex, p *graph.Graph) *pattern.TIDSet {
	tids, _ := ix.Verify(p, ix.CandidateTIDs(p), nil, nil)
	return tids
}

// containsBrute decides containment by trying every injective map of p's
// vertices, in vertex order, onto g's. It has no match order, no posting
// lists and no degree filter, so it shares nothing with isomorph's search
// but the graph type.
func containsBrute(g, p *graph.Graph) bool {
	mapping := make([]int, p.VertexCount())
	used := make([]bool, g.VertexCount())
	var place func(pv int) bool
	place = func(pv int) bool {
		if pv == p.VertexCount() {
			return true
		}
		for tv := 0; tv < g.VertexCount(); tv++ {
			if used[tv] || g.Labels[tv] != p.Labels[pv] {
				continue
			}
			ok := true
			for _, e := range p.Adj[pv] {
				if e.To < pv {
					if l, has := g.EdgeLabel(tv, mapping[e.To]); !has || l != e.Label {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			mapping[pv], used[tv] = tv, true
			if place(pv + 1) {
				return true
			}
			used[tv] = false
		}
		return false
	}
	return place(0)
}

// disjointUnion returns a graph holding a and b as separate components.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	g := a.Clone()
	off := g.VertexCount()
	for _, l := range b.Labels {
		g.AddVertex(l)
	}
	for u := 0; u < b.VertexCount(); u++ {
		for _, e := range b.Adj[u] {
			if u < e.To {
				g.MustAddEdge(off+u, off+e.To, e.Label)
			}
		}
	}
	return g
}

// TestSupportMatchesBruteForce is the core differential property: the
// verify loop, over the narrowed candidates or over an arbitrary TID
// subset, agrees with a brute-force matcher and with the plain VF2 scans —
// for connected patterns, patterns of two components, and patterns with
// an isolated vertex (the ad-hoc read path accepts all three).
func TestSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := graph.RandomDatabase(rng, 30, 10, 15, 3, 2)
	ix := Build(db)
	shapes := []string{"connected", "two components", "isolated vertex"}
	contained := make([]int, len(shapes))
	for i := 0; i < 90; i++ {
		shape := i % len(shapes)
		pat := graph.RandomConnected(rng, 1000+i, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		switch shape {
		case 1:
			pat = disjointUnion(pat, graph.RandomConnected(rng, 0, 2, 1, 3, 2))
		case 2:
			pat.AddVertex(rng.Intn(3))
		}
		want := pattern.NewTIDSet(len(db))
		for tid, g := range db {
			if containsBrute(g, pat) {
				want.Add(tid)
			}
		}
		if want.Count() > 0 {
			contained[shape]++
		}
		if got := supporters(ix, pat); !got.Equal(want) {
			t.Fatalf("pattern %d (%s): verified %v, brute force %v\n%v", i, shapes[shape], got, want, pat)
		}
		if got := isomorph.Support(db, pat); got != want.Count() {
			t.Fatalf("pattern %d (%s): plain scan %d, brute force %d", i, shapes[shape], got, want.Count())
		}
		tids := rng.Perm(len(db))[:10]
		subset := pattern.NewTIDSet(len(db))
		for _, tid := range tids {
			subset.Add(tid)
		}
		got, _ := ix.Verify(pat, subset, nil, nil)
		if want := isomorph.SupportIn(db, pat, tids); got.Count() != want {
			t.Fatalf("pattern %d (%s): verified %d of the subset, plain scan %d", i, shapes[shape], got.Count(), want)
		}
	}
	for shape, n := range contained {
		if n == 0 {
			t.Errorf("no %s pattern was contained anywhere; weaken the generator", shapes[shape])
		}
	}
}

// TestVerifyTakesKnownUntested: a known TID is a supporter without a test,
// every other candidate costs a signature check or a VF2 run, and a fired
// ticker stops the walk.
func TestVerifyTakesKnownUntested(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := graph.RandomDatabase(rng, 20, 10, 15, 3, 2)
	ix := Build(db)
	pat := graph.RandomConnected(rng, 0, 4, 4, 3, 2)
	all := pattern.FullTIDSet(len(db))
	known := pattern.NewTIDSet(len(db))
	known.Add(3)
	known.Add(11)
	got, st := ix.Verify(pat, all, known, nil)
	want := supporters(ix, pat).UnionWith(known)
	if !got.Equal(want) {
		t.Fatalf("verified %v, want the supporters plus the known TIDs %v", got, want)
	}
	if st.SigPruned+st.IsoTests != int64(len(db)-known.Count()) {
		t.Fatalf("%d signature prunes + %d VF2 runs for %d untested candidates", st.SigPruned, st.IsoTests, len(db)-known.Count())
	}
	if st.IsoTests > 0 && st.Steps == 0 {
		t.Fatal("VF2 ran but no search steps were counted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tick := exec.NewTicker(ctx)
	if tick.Err() == nil { // latches the ticker, so its next Hit fires
		t.Fatal("ticker of a cancelled context reports no error")
	}
	if got, st := ix.Verify(pat, all, nil, tick); got.Count() != 0 || st.IsoTests != 0 {
		t.Fatalf("a fired ticker still verified %v with %d VF2 runs", got, st.IsoTests)
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
	// Behavioral equivalence on random patterns.
	for i := 0; i < 40; i++ {
		pat := graph.RandomConnected(rng, 2000+i, 2+rng.Intn(4), 1+rng.Intn(4), 3, 2)
		if !supporters(ix, pat).Equal(supporters(fresh, pat)) {
			t.Fatalf("pattern %d: supporting TIDs diverge after Update", i)
		}
	}
}

// TestCandidateTIDsUpperBound: the narrowed set must cover every true
// supporter (it is an upper bound, never an undercount).
func TestCandidateTIDsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := graph.RandomDatabase(rng, 20, 10, 14, 3, 2)
	ix := Build(db)
	for i := 0; i < 40; i++ {
		pat := graph.RandomConnected(rng, 3000+i, 2+rng.Intn(4), 1+rng.Intn(5), 3, 2)
		cand := ix.CandidateTIDs(pat)
		for tid, g := range db {
			if isomorph.Contains(g, pat) && !cand.Contains(tid) {
				t.Fatalf("pattern %d: supporter %d filtered out by CandidateTIDs", i, tid)
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
	m := isomorph.NewMatcherRanked(pat, func(label int) int { return ix.labelFreq[label] })
	psig := sigOf(pat)
	pass := func() {
		for tid, g := range db {
			if ix.sigs[tid].dominates(psig) {
				m.ContainsPosted(g, &ix.posts[tid], nil)
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
	// The vertexless pattern is contained in every graph, on the verify
	// path and in the plain-scan oracle alike.
	empty := graph.New(0)
	if got := supporters(ix, empty).Count(); got != len(db) {
		t.Errorf("empty pattern support = %d, want %d", got, len(db))
	}
	if got := isomorph.Support(db, empty); got != len(db) {
		t.Errorf("empty pattern plain-scan support = %d, want %d", got, len(db))
	}
	// A pattern using a label outside the database's universe.
	alien := graph.New(1)
	a := alien.AddVertex(77)
	b := alien.AddVertex(78)
	alien.MustAddEdge(a, b, 0)
	if got := supporters(ix, alien).Count(); got != 0 {
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
		if got, want := supporters(ix, pat), supporters(freshOld, pat); !got.Equal(want) {
			t.Fatalf("pattern %d: original supporters %v after clone update, want %v", i, got, want)
		}
		if !supporters(clone, pat).Equal(supporters(freshNew, pat)) {
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
}

// TestCloneUpdateIsolation: the TID bitsets are immutable once built and
// a Clone shares them, so an Update on either side — the original or the
// clone — must leave every answer of the other side as it was:
// CandidateTIDs, FrequentEdges and Verify alike. The updates relabel to
// labels the database has never held and add triples, so sets are
// created, emptied and dropped as well as patched.
func TestCloneUpdateIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := graph.RandomDatabase(rng, 24, 9, 13, 3, 2)
	pats := make([]*graph.Graph, 40)
	for i := range pats {
		pats[i] = graph.RandomConnected(rng, 5000+i, 2+rng.Intn(3), 1+rng.Intn(4), 5, 3)
	}
	type answers struct {
		cand, verified []*pattern.TIDSet
		edges          map[string]string
	}
	answer := func(ix *FeatureIndex) answers {
		var a answers
		for _, p := range pats {
			a.cand = append(a.cand, ix.CandidateTIDs(p))
			a.verified = append(a.verified, supporters(ix, p))
		}
		a.edges = make(map[string]string)
		for key, p := range ix.FrequentEdges(1) {
			a.edges[key] = p.TIDs.String()
		}
		return a
	}
	same := func(t *testing.T, side string, got, want answers) {
		t.Helper()
		for i := range pats {
			if !got.cand[i].Equal(want.cand[i]) || !got.verified[i].Equal(want.verified[i]) {
				t.Fatalf("%s: pattern %d: candidates %v, supporters %v; before the other side's update %v, %v",
					side, i, got.cand[i], got.verified[i], want.cand[i], want.verified[i])
			}
		}
		if !reflect.DeepEqual(got.edges, want.edges) {
			t.Fatalf("%s: frequent edges changed by the other side's update", side)
		}
	}
	update := func(ix *FeatureIndex, seed int64) {
		r := rand.New(rand.NewSource(seed))
		newDB := append(graph.Database(nil), ix.db...)
		var updated []int
		for tid := int(seed % 3); tid < len(newDB); tid += 3 {
			g := newDB[tid].Clone()
			g.Labels[r.Intn(g.VertexCount())] = 3 + r.Intn(2) // labels db never held
			if u, v := r.Intn(g.VertexCount()), r.Intn(g.VertexCount()); u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 2)
			}
			newDB[tid] = g
			updated = append(updated, tid)
		}
		ix.Update(newDB, updated)
	}

	ix := Build(db)
	before := answer(ix)
	clone := ix.Clone()
	update(clone, 1)
	same(t, "original after the clone's update", answer(ix), before)
	if reflect.DeepEqual(answer(clone).edges, before.edges) {
		t.Fatal("the clone's update changed none of its frequent edges")
	}

	ix = Build(db)
	clone = ix.Clone()
	update(ix, 2)
	same(t, "clone after the original's update", answer(clone), before)
}
