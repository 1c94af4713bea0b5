package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"partminer/internal/datagen"
	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
)

var allUpdateKinds = []datagen.UpdateKind{datagen.Relabel, datagen.AddEdge, datagen.AddVertex, datagen.RemoveEdge}

// updateRound clones db and updates it: one randomly chosen graph when
// frac is 0, otherwise about frac of the graphs, drawing from all four
// update kinds.
func updateRound(db graph.Database, frac float64, seed int64) (graph.Database, []int) {
	next := db.Clone()
	cfg := datagen.UpdateConfig{Fraction: frac, Kinds: allUpdateKinds, N: 4, Seed: seed}
	if frac > 0 {
		return next, datagen.ApplyUpdates(next, cfg)
	}
	tid := rand.New(rand.NewSource(seed)).Intn(len(next))
	cfg.Fraction = 1
	if len(datagen.ApplyUpdates(next[tid:tid+1], cfg)) == 0 {
		return next, nil
	}
	return next, []int{tid}
}

// TestBorderChainedDifferential50Seeds chains three folds — one graph,
// 10 % and 50 % of the database updated, deletions included — on 50
// seeded databases, for K=2 and K=4 (four unit sets seed the merge),
// serial and pooled, without and with a growth envelope of two edges, and
// compares keys, supports and TID bitsets with gSpan after every fold.
// The negative border must prune from the first fold on: it is recorded
// by the initial mine, not warmed up by folds. Past the envelope only the
// root merge generates candidates, so there the border is held to pruning
// once per chain, and the patterns it mined there must fold like any
// other: their unchanged supporters are carried, not re-derived.
func TestBorderChainedDifferential50Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed differential is slow; skipped with -short")
	}
	const minSup, maxEdges = 3, 4
	fractions := []float64{0, 0.1, 0.5}
	for seed := 0; seed < 50; seed++ {
		cfg := datagen.Config{D: 20, T: 7, N: 4, L: 10, I: 3, Seed: int64(seed)}
		if seed%2 == 1 {
			cfg.Hubs = 2
		}
		db := datagen.Generate(cfg)
		dbs := make([]graph.Database, len(fractions))
		tids := make([][]int, len(fractions))
		wants := make([]pattern.Set, len(fractions))
		cur := db
		for r, frac := range fractions {
			dbs[r], tids[r] = updateRound(cur, frac, int64(seed*10+r))
			wants[r] = gspan.Mine(dbs[r], gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
			cur = dbs[r]
		}
		for _, envelope := range []int{0, 2} {
			for _, k := range []int{2, 4} {
				for _, parallel := range []bool{false, true} {
					name := fmt.Sprintf("envelope=%d k=%d parallel=%t", envelope, k, parallel)
					prev, err := PartMiner(db, Options{MinSupport: minSup, K: k, MaxEdges: maxEdges, GrowthEnvelope: envelope, Parallel: parallel})
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, name, err)
					}
					var chainPruned, chainCarriedLarge int64
					for r := range fractions {
						inc, err := IncPartMiner(dbs[r], tids[r], prev)
						if err != nil {
							t.Fatalf("seed %d %s round %d: %v", seed, name, r, err)
						}
						diffSets(t, seed, fmt.Sprintf("%s round %d", name, r), wants[r], inc.Patterns)
						if envelope == 0 && inc.MergeStats.BorderPruned == 0 {
							t.Errorf("seed %d %s round %d: the negative border pruned nothing", seed, name, r)
						}
						if inc.MergeStats.BorderPruned > inc.MergeStats.Pruned {
							t.Errorf("seed %d %s round %d: border_pruned %d exceeds pruned %d", seed, name, r,
								inc.MergeStats.BorderPruned, inc.MergeStats.Pruned)
						}
						updated := pattern.NewTIDSet(len(db))
						for _, tid := range tids[r] {
							updated.Add(tid)
						}
						if floor := carriedFloor(prev, inc, updated, 2); inc.MergeStats.CarriedTIDs < floor {
							t.Errorf("seed %d %s round %d: carried_tids %d; the surviving patterns alone have %d unchanged supporters",
								seed, name, r, inc.MergeStats.CarriedTIDs, floor)
						}
						chainPruned += inc.MergeStats.BorderPruned
						chainCarriedLarge += carriedFloor(prev, inc, updated, envelope+1)
						prev = &inc.Result
					}
					if chainPruned == 0 {
						t.Errorf("seed %d %s: the negative border pruned nothing in three folds", seed, name)
					}
					if envelope > 0 && chainCarriedLarge == 0 {
						t.Errorf("seed %d %s: no supporter of a pattern past the envelope was carried", seed, name)
					}
				}
			}
		}
	}
}

// carriedFloor counts what an incremental merge cannot avoid carrying:
// the pre-update supporters among unchanged transactions of each pattern
// of at least minSize (two or more: 1-edge patterns are read off the
// index) edges the result held before and still holds. A pattern that
// fell out may have been pruned before its supporters were carried,
// hence a floor.
func carriedFloor(prev *Result, inc *IncResult, updated *pattern.TIDSet, minSize int) int64 {
	var n int64
	for key, p := range inc.Patterns {
		if old, ok := prev.Patterns[key]; ok && p.Size() >= minSize {
			n += int64(old.TIDs.AndNotCount(updated))
		}
	}
	return n
}

// resultState renders everything an incremental run reads from a previous
// result — pattern sets with TIDs, the border, unit results and every
// leaf database of the tree — so two states compare with
// reflect.DeepEqual.
func resultState(res *Result) map[string]string {
	state := make(map[string]string)
	addSet := func(prefix string, set pattern.Set) {
		for key, p := range set {
			state[prefix+"/"+key] = fmt.Sprintf("%d %v", p.Support, p.TIDs)
		}
	}
	addSet("patterns", res.Patterns)
	for i, set := range res.UnitPatterns {
		addSet(fmt.Sprintf("unit %d", i), set)
	}
	for key, e := range res.Border {
		state["border "+key] = fmt.Sprintf("%q %v", e.Blocker, e.Bound)
	}
	for i, leaf := range res.Tree.Leaves() {
		var sb strings.Builder
		for _, g := range leaf.DB {
			sb.WriteString(g.String())
		}
		state[fmt.Sprintf("leaf %d", i)] = sb.String()
	}
	return state
}

// withoutReasons keeps which candidates a state's borders hold and drops
// the entries' contents.
func withoutReasons(state map[string]string) map[string]string {
	for key := range state {
		if strings.HasPrefix(key, "border ") {
			state[key] = ""
		}
	}
	return state
}

// TestIncrementalLeavesPrevUntouched: one previous result may feed many
// incremental runs (the benchmark and the server both shallow-copy it),
// so a run must neither modify it — the old border and frequent set least
// of all — nor let it shape anything but the answer: two runs off the
// same prev return the same patterns, TIDs and unit sets and reject the same
// candidates. (Why a candidate was rejected may differ: which parent
// generated it first follows map order.)
func TestIncrementalLeavesPrevUntouched(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		db := datagen.Generate(datagen.Config{D: 24, T: 7, N: 4, L: 10, I: 3, Seed: 5})
		prev, err := PartMiner(db, Options{MinSupport: 3, K: 4, MaxEdges: 4, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		before := resultState(prev)
		newDB, tids := updateRound(db, 0.3, 8)
		run := func() *IncResult {
			p := *prev // the feature index is the one part a run patches in place
			p.Index = prev.Index.Clone()
			inc, err := IncPartMiner(newDB, tids, &p)
			if err != nil {
				t.Fatal(err)
			}
			return inc
		}
		a, b := run(), run()
		if !reflect.DeepEqual(resultState(prev), before) {
			t.Errorf("parallel=%t: incremental runs modified the previous result", parallel)
		}
		if !reflect.DeepEqual(withoutReasons(resultState(&a.Result)), withoutReasons(resultState(&b.Result))) {
			t.Errorf("parallel=%t: two runs off the same previous result differ", parallel)
		}
		if a.MergeStats.BorderPruned == 0 {
			t.Errorf("parallel=%t: the negative border pruned nothing", parallel)
		}
		// A further fold off one of them must not reach back into prev
		// through shared border entries either.
		nextDB, nextTIDs := updateRound(newDB, 0.3, 9)
		inc, err := IncPartMiner(nextDB, nextTIDs, &a.Result)
		if err != nil {
			t.Fatal(err)
		}
		diffSets(t, 5, "second fold", gspan.Mine(nextDB, gspan.Options{MinSupport: 3, MaxEdges: 4}), inc.Patterns)
		if !reflect.DeepEqual(resultState(prev), before) {
			t.Errorf("parallel=%t: a chained fold modified the first result", parallel)
		}
	}
}

// TestRestoredResultFoldsWithoutBorder: a snapshot stores neither the
// border nor the index. The first fold after a restore verifies every
// candidate in full and records a border; the fold after that prunes by
// it. Both stay exact.
func TestRestoredResultFoldsWithoutBorder(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 24, T: 7, N: 4, L: 10, I: 3, Seed: 3})
	res, err := PartMiner(db, Options{MinSupport: 3, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveSnapshot(&sb, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "border") {
		t.Error("the snapshot mentions the border; it must not be persisted")
	}
	backDB, back, err := LoadSnapshot(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Border != nil || back.Index != nil {
		t.Fatalf("a restored result carries a border (%d) or an index", len(back.Border))
	}
	db1, tids1 := updateRound(backDB, 0.2, 1)
	first, err := IncPartMiner(db1, tids1, back)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, 3, "first fold after restore", gspan.Mine(db1, gspan.Options{MinSupport: 3, MaxEdges: 4}), first.Patterns)
	if first.MergeStats.BorderPruned != 0 {
		t.Errorf("border_pruned = %d on a fold that had no border to consult", first.MergeStats.BorderPruned)
	}
	if len(first.Border) == 0 {
		t.Fatal("the first fold recorded no border")
	}
	db2, tids2 := updateRound(db1, 0.2, 2)
	second, err := IncPartMiner(db2, tids2, &first.Result)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, 3, "second fold after restore", gspan.Mine(db2, gspan.Options{MinSupport: 3, MaxEdges: 4}), second.Patterns)
	if second.MergeStats.BorderPruned == 0 {
		t.Error("the second fold did not prune by the border the first recorded")
	}
}

// TestIncPartMinerRejectsUnlistedChange: the changed set is checked
// against the previous database, not trusted. A graph that differs but
// is not listed would silently keep its old pieces and carried TIDs.
func TestIncPartMinerRejectsUnlistedChange(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 12, T: 7, N: 4, L: 10, I: 3, Seed: 2})
	prev, err := PartMiner(db, Options{MinSupport: 3, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	newDB := db.Clone()
	newDB[4].Labels[0]++
	newDB[7].Labels[0]++
	_, err = IncPartMiner(newDB, []int{4}, prev)
	if err == nil || !strings.Contains(err.Error(), "graph 7 ") {
		t.Fatalf("an unlisted change to graph 7 gave error %v", err)
	}
	// Listing a graph that did not change is allowed: it costs a
	// bisection, not exactness. So is sharing unchanged graphs by pointer.
	shared := append(graph.Database(nil), db...)
	shared[4] = newDB[4]
	inc, err := IncPartMiner(shared, []int{4, 5}, prev)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, 2, "over-listed", gspan.Mine(shared, gspan.Options{MinSupport: 3, MaxEdges: 3}), inc.Patterns)
}

// codeOfKey parses a border key back into the canonical code of the
// candidate it names: a canonical key (dfscode.Code.Key) directly, an
// extension key ("parent key+u v le lv") by adding the edge to the
// parent's canonical graph — v equal to its vertex count is a new vertex
// labelled lv — and canonicalising the result.
func codeOfKey(t *testing.T, key string) dfscode.Code {
	t.Helper()
	parent, ext, isExt := strings.Cut(key, "+")
	var code dfscode.Code
	for _, part := range strings.Split(strings.TrimSuffix(parent, ";"), ";") {
		var e dfscode.EdgeCode
		if _, err := fmt.Sscanf(part, "%d %d %d %d %d", &e.I, &e.J, &e.LI, &e.LE, &e.LJ); err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		code = append(code, e)
	}
	if !isExt {
		return code
	}
	var u, v, le, lv int
	if _, err := fmt.Sscanf(ext, "%d %d %d %d", &u, &v, &le, &lv); err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	g := code.Graph()
	if v == g.VertexCount() {
		g.AddVertex(lv)
	} else if g.Labels[v] != lv {
		t.Fatalf("key %q: vertex %d is labelled %d", key, v, g.Labels[v])
	}
	if err := g.AddEdge(u, v, le); err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	return dfscode.MinCode(g)
}

// TestBorderEntriesSoundPastDecompSize mines to six edges — past the size
// where merge-join engages the decomposition cover, which for an
// extension candidate is the one piece grown from its added edge on top
// of a bound started from its parent's supporters — and holds every
// border entry to a brute-force count over the database: the rejected candidate is infrequent there, a bound holds
// every exact supporter, and a blocker is an infrequent sub-pattern of the
// candidate. It then folds two 10 % updates in a row and holds each
// fold's border to the same count over the updated database. A fold records
// what its generation filters reject under extension keys — with the
// missing path as blocker or the narrowed intersection as bound — and the
// second fold refreshes the first's extension entries through its border
// probe, so both kinds of key and both kinds of entry are recounted. K=2
// and K=4, serial and parallel (units only).
func TestBorderEntriesSoundPastDecompSize(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force recount of every border entry; skipped with -short")
	}
	const minSup, maxEdges = 3, 6
	var foldPairPruned, extEntries int64
	for seed := 0; seed < 6; seed++ {
		db := datagen.Generate(datagen.Config{D: 20, T: 9, N: 4, L: 10, I: 4, Seed: int64(seed)})
		want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
		dbs := make([]graph.Database, 2)
		tids := make([][]int, 2)
		wants := make([]pattern.Set, 2)
		cur := db
		for r := range dbs {
			dbs[r], tids[r] = updateRound(cur, 0.1, int64(seed+100*r))
			wants[r] = gspan.Mine(dbs[r], gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
			cur = dbs[r]
		}
		for _, k := range []int{2, 4} {
			for _, parallel := range []bool{false, true} {
				name := fmt.Sprintf("k=%d parallel=%t", k, parallel)
				res, err := PartMiner(db, Options{MinSupport: minSup, K: k, MaxEdges: maxEdges, Parallel: parallel})
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				diffSets(t, seed, name, want, res.Patterns)
				if res.MergeStats.DecompPruned == 0 {
					t.Errorf("seed %d %s: the decomposition cover pruned nothing", seed, name)
				}
				checkBordersSound(t, fmt.Sprintf("seed %d %s", seed, name), res, minSup)

				for r := range dbs {
					inc, err := IncPartMiner(dbs[r], tids[r], res)
					if err != nil {
						t.Fatalf("seed %d %s fold %d: %v", seed, name, r, err)
					}
					foldName := fmt.Sprintf("seed %d %s fold %d", seed, name, r)
					diffSets(t, seed, foldName, wants[r], inc.Patterns)
					foldPairPruned += inc.MergeStats.PairPruned
					for key := range inc.Border {
						if strings.Contains(key, "+") {
							extEntries++
						}
					}
					checkBordersSound(t, foldName, &inc.Result, minSup)
					res = &inc.Result
				}
			}
		}
	}
	if foldPairPruned == 0 || extEntries == 0 {
		t.Errorf("folds pair-pruned %d extensions and left %d extension entries: the fold borders held no entry of their own",
			foldPairPruned, extEntries)
	}
}

// checkBordersSound recounts every border entry of res by brute force
// over the whole database, at the run's threshold.
func checkBordersSound(t *testing.T, name string, res *Result, minSup int) {
	t.Helper()
	db := res.Tree.Root.DB
	counted := make(map[string]*pattern.TIDSet)
	supporters := func(key string, g *graph.Graph) *pattern.TIDSet {
		if ts, ok := counted[key]; ok {
			return ts
		}
		ts := pattern.NewTIDSet(len(db))
		for tid, tx := range db {
			if isomorph.Contains(tx, g) {
				ts.Add(tid)
			}
		}
		counted[key] = ts
		return ts
	}
	for key, e := range res.Border {
		cand := codeOfKey(t, key).Graph()
		tids := supporters(key, cand)
		if tids.Count() >= minSup {
			t.Fatalf("%s: rejected %s has support %d >= %d", name, key, tids.Count(), minSup)
		}
		if e.Bound != nil && tids.AndNotCount(e.Bound) != 0 {
			t.Fatalf("%s: bound %v of %s misses supporters %v", name, e.Bound, key, tids)
		}
		if e.Blocker != "" {
			piece := codeOfKey(t, e.Blocker).Graph()
			if !isomorph.Contains(cand, piece) {
				t.Fatalf("%s: blocker %s is not inside %s", name, e.Blocker, key)
			}
			if n := supporters(e.Blocker, piece).Count(); n >= minSup {
				t.Fatalf("%s: blocker %s of %s has support %d >= %d", name, e.Blocker, key, n, minSup)
			}
		}
	}
}
