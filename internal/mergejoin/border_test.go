package mergejoin

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/isomorph"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// chain builds a path graph with the given vertex labels and edge label 0.
func chain(labels ...int) *graph.Graph {
	g := graph.New(0)
	for i, l := range labels {
		g.AddVertex(l)
		if i > 0 {
			g.MustAddEdge(i-1, i, 0)
		}
	}
	return g
}

func tidSet(tids ...int) *pattern.TIDSet {
	ts := pattern.NewTIDSet(0)
	for _, tid := range tids {
		ts.Add(tid)
	}
	return ts
}

// TestBorderEveryRejectionRecorded: a merge leaves exactly one border
// entry per rejected candidate and none for a frequent pattern, each with
// exactly one reason, every bound below the threshold and every blocker
// infrequent.
func TestBorderEveryRejectionRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	db := graph.RandomDatabase(rng, 14, 7, 10, 3, 2)
	d0, d1 := splitDB(db, partition.Partition2)
	p0 := gspan.Mine(d0, gspan.Options{MinSupport: 1, MaxEdges: 4})
	p1 := gspan.Mine(d1, gspan.Options{MinSupport: 1, MaxEdges: 4})
	const minSup = 3
	var st Stats
	border := make(Border)
	set, err := MergeContext(context.Background(), db, p0, p1, Config{MinSupport: minSup, MaxEdges: 4, Border: border, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(border)) != st.Candidates-st.Frequent {
		t.Fatalf("border has %d entries; %d candidates were rejected", len(border), st.Candidates-st.Frequent)
	}
	for key, e := range border {
		if _, frequent := set[key]; frequent {
			t.Fatalf("frequent pattern %s is in the border", key)
		}
		switch {
		case (e.Blocker == "") == (e.Bound == nil):
			t.Fatalf("entry %s carries %q and %v; want exactly one reason", key, e.Blocker, e.Bound)
		case e.Bound != nil && e.Bound.Count() >= minSup:
			t.Fatalf("entry %s: bound of %d does not reject at %d", key, e.Bound.Count(), minSup)
		case e.Blocker != "" && set[e.Blocker] != nil:
			t.Fatalf("entry %s: blocker %s is frequent", key, e.Blocker)
		}
	}
}

// TestBorderCarry pins what happens to an old entry no candidate met.
func TestBorderCarry(t *testing.T) {
	updated := tidSet(4, 5)
	old := Border{
		"met":      {Bound: tidSet(1)},
		"frequent": {Bound: tidSet(1, 2)},
		"blocked":  {Blocker: "sub"},
		"stale":    {Blocker: "frequent"},
		"narrow":   {Bound: tidSet(1, 5)},
		"wide":     {Bound: tidSet(1, 2)},
	}
	border := Border{"met": {Blocker: "other"}}
	border.carry(old, pattern.Set{"frequent": {Support: 4}}, updated, 4)
	if e := border["met"]; e.Blocker != "other" {
		t.Errorf("an entry this merge recorded was overwritten: %+v", e)
	}
	if _, ok := border["frequent"]; ok {
		t.Error("a pattern that became frequent stayed in the border")
	}
	if e := border["blocked"]; e.Blocker != "sub" {
		t.Errorf("a blocker entry must carry as is, got %+v", e)
	}
	if _, ok := border["stale"]; ok {
		t.Error("a blocker entry whose blocker became frequent was carried")
	}
	// {1,5} ∪ {4,5} has 3 members, below 4: kept, widened; the old set
	// is not touched.
	if e, ok := border["narrow"]; !ok || !e.Bound.Equal(tidSet(1, 4, 5)) {
		t.Errorf("narrow bound carried as %+v; want {1,4,5}", e)
	}
	if !old["narrow"].Bound.Equal(tidSet(1, 5)) {
		t.Error("carry modified the old border's bound")
	}
	// {1,2} ∪ {4,5} reaches 4: nothing is known any more.
	if _, ok := border["wide"]; ok {
		t.Error("a bound that reaches the threshold once widened must be dropped")
	}
}

// TestBorderCarryWidensUnmetBound is the case a bound carried unwidened
// would get wrong. X = a-b-c is rejected on its exact TIDs {0}; in the
// next round graph 5 gains X while a-b turns infrequent, so X is not
// generated and its entry is carried; in the round after, graph 8 gains
// X too and a-b is frequent again. X now has support 3 = minsup. An
// entry still saying {0} would prune it on |{0}| + |{8}| = 2.
func TestBorderCarryWidensUnmetBound(t *testing.T) {
	const a, b, c, d, e = 0, 1, 2, 3, 4
	x := func() *graph.Graph { return chain(a, b, c) }
	y := func() *graph.Graph { return chain(a, b, d, b, c) } // a-b and b-c, but no a-b-c
	bc := func() *graph.Graph { return chain(b, c) }
	none := func() *graph.Graph { return chain(d, e) }
	xKey := dfscode.MinCode(x()).Key()
	none2 := pattern.Set{}
	const minSup = 3

	db0 := graph.Database{x(), y(), y(), bc(), bc(), none(), none(), none(), none()}
	border0 := make(Border)
	set0, err := MergeContext(context.Background(), db0, none2, none2, Config{MinSupport: minSup, Border: border0})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := border0[xKey]; !ok || e.Bound == nil || !e.Bound.Equal(tidSet(0)) {
		t.Fatalf("base merge: X entry %+v; want the exact TIDs {0}", e)
	}

	db1 := append(graph.Database(nil), db0...)
	db1[1], db1[2], db1[5] = bc(), bc(), x()
	border1 := make(Border)
	set1, err := MergeContext(context.Background(), db1, none2, none2, Config{MinSupport: minSup, Border: border1,
		Old: set0, OldBorder: border0, Updated: tidSet(1, 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set1[xKey]; ok {
		t.Fatal("round 1: X has support 2 and must not be frequent")
	}
	if e, ok := border1[xKey]; ok && e.Bound != nil && !e.Bound.Contains(5) {
		t.Fatalf("round 1: X was carried with bound %v, which misses its new supporter 5", e.Bound)
	}

	db2 := append(graph.Database(nil), db1...)
	db2[8] = x()
	set2, err := MergeContext(context.Background(), db2, none2, none2, Config{MinSupport: minSup,
		Old: set1, OldBorder: border1, Updated: tidSet(8)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeContext(context.Background(), db2, none2, none2, Config{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	if !set2.Equal(want) {
		t.Fatalf("round 2 diff: %v", set2.Diff(want))
	}
	if p := set2[xKey]; p == nil || p.Support != 3 || !p.TIDs.Equal(tidSet(0, 5, 8)) {
		t.Fatalf("round 2: X = %v; want support 3 on {0,5,8}", p)
	}
}

// TestBorderRecheck pins the two soundness rules on one entry each.
func TestBorderRecheck(t *testing.T) {
	updated := tidSet(2, 3, 9)
	result := pattern.Set{"back": {Support: 5}}
	if _, holds := (BorderEntry{Blocker: "gone"}).recheck(result, updated, nil, 3); !holds {
		t.Error("a blocker that is still infrequent must keep the candidate out")
	}
	if _, holds := (BorderEntry{Blocker: "back"}).recheck(result, updated, nil, 3); holds {
		t.Error("a blocker that became frequent proves nothing")
	}
	// Bound {1,2}: 1 is unchanged and stays; 2 was updated and counts only
	// if the parent and the added triple both still occur there.
	entry := BorderEntry{Bound: tidSet(1, 2)}
	fresh, holds := entry.recheck(result, updated, []*pattern.TIDSet{tidSet(3, 9), tidSet(3, 7)}, 3)
	if !holds || !fresh.Bound.Equal(tidSet(1, 3)) {
		t.Errorf("recheck = %+v, %t; want bound {1,3}, still infrequent", fresh, holds)
	}
	if !entry.Bound.Equal(tidSet(1, 2)) {
		t.Error("recheck modified the old entry's bound")
	}
	if _, holds := entry.recheck(result, updated, []*pattern.TIDSet{updated}, 3); holds {
		t.Error("1 unchanged + 3 updated transactions reach the threshold: no prune")
	}
}

// extKeyGraph rebuilds the graph an extension key names: the parent's
// canonical graph plus the added edge, to a new vertex when v is the
// parent's vertex count.
func extKeyGraph(t *testing.T, key string) *graph.Graph {
	t.Helper()
	parent, ext, ok := strings.Cut(key, "+")
	if !ok {
		t.Fatalf("%q is not an extension key", key)
	}
	var code dfscode.Code
	for _, part := range strings.Split(strings.TrimSuffix(parent, ";"), ";") {
		var e dfscode.EdgeCode
		if _, err := fmt.Sscanf(part, "%d %d %d %d %d", &e.I, &e.J, &e.LI, &e.LE, &e.LJ); err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		code = append(code, e)
	}
	var u, v, le, lv int
	if _, err := fmt.Sscanf(ext, "%d %d %d %d", &u, &v, &le, &lv); err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	g := code.Graph()
	if v == g.VertexCount() {
		g.AddVertex(lv)
	}
	if g.Labels[v] != lv {
		t.Fatalf("key %q: vertex %d is labelled %d", key, v, g.Labels[v])
	}
	if err := g.AddEdge(u, v, le); err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	return g
}

// TestExtensionKeyNamesItsCandidate: across random small databases, the
// key of every extension of every frequent pattern rebuilds to the graph
// the generator built for it (equal canonical keys). A mine records no
// extension key; the first fold after it records one for every extension
// its generation filters reject — its old border holds no extension key
// to probe and carry, so these are exactly the path filter's drops — and
// each names a candidate that is infrequent in the updated database.
func TestExtensionKeyNamesItsCandidate(t *testing.T) {
	const minSup, maxEdges = 3, 5
	none := pattern.Set{}
	var exts, foldEntries int
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 14, 7, 9, 3, 2)
		border := make(Border)
		set, err := MergeContext(context.Background(), db, none, none, Config{MinSupport: minSup, MaxEdges: maxEdges, Border: border})
		if err != nil {
			t.Fatal(err)
		}
		for key := range border {
			if strings.Contains(key, "+") {
				t.Fatalf("seed %d: the mine recorded extension key %q", seed, key)
			}
		}

		edges := make(pattern.Set)
		for key, p := range set {
			if p.Size() == 1 {
				edges[key] = p
			}
		}
		gen := &generator{triples: edgeTriples(edges), minSup: minSup}
		for qKey, q := range set {
			for _, ext := range gen.extensions(q.Code.Graph(), qKey, nil, nil) {
				le, _ := ext.g.EdgeLabel(ext.u, ext.v)
				key := string(appendExtKey(nil, qKey, ext.u, ext.v, le, ext.g.Labels[ext.v]))
				if got, want := dfscode.MinCode(extKeyGraph(t, key)).Key(), dfscode.MinCode(ext.g).Key(); got != want {
					t.Fatalf("seed %d: key %q rebuilds to %s, the generator built %s", seed, key, got, want)
				}
				exts++
			}
		}

		next := db.Clone()
		updated := pattern.NewTIDSet(len(db))
		for _, tid := range rng.Perm(len(db))[:3] {
			next[tid] = graph.RandomConnected(rng, tid, 7, 9, 3, 2)
			updated.Add(tid)
		}
		var st Stats
		foldBorder := make(Border)
		if _, err := MergeContext(context.Background(), next, none, none, Config{MinSupport: minSup, MaxEdges: maxEdges,
			Old: set, OldBorder: border, Updated: updated, Border: foldBorder, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		var recorded int64
		for key := range foldBorder {
			if !strings.Contains(key, "+") {
				continue
			}
			recorded++
			g := extKeyGraph(t, key)
			if sup := isomorph.Support(next, g); sup >= minSup {
				t.Fatalf("seed %d: extension entry %q names a candidate of support %d", seed, key, sup)
			}
		}
		if recorded != st.PairPruned {
			t.Fatalf("seed %d: the fold recorded %d extension entries for %d extensions it rejected at generation", seed, recorded, st.PairPruned)
		}
		foldEntries += int(recorded)
	}
	t.Logf("%d extension keys rebuilt, %d extension entries recounted", exts, foldEntries)
	if exts == 0 || foldEntries == 0 {
		t.Fatalf("%d extensions checked, %d extension entries recorded; want both > 0", exts, foldEntries)
	}
}
