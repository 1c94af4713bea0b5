package core

import (
	"math/rand"
	"strings"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/partition"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := graph.RandomDatabase(rng, 8, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 3, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveResult(&sb, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(strings.NewReader(sb.String()), db)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Patterns.Equal(res.Patterns) {
		t.Fatalf("patterns diff: %v", back.Patterns.Diff(res.Patterns))
	}
	if back.UnitSupport != res.UnitSupport {
		t.Errorf("UnitSupport %d != %d", back.UnitSupport, res.UnitSupport)
	}
	if len(back.UnitPatterns) != len(res.UnitPatterns) {
		t.Fatalf("unit set count %d != %d", len(back.UnitPatterns), len(res.UnitPatterns))
	}
	for i := range res.UnitPatterns {
		if !back.UnitPatterns[i].Equal(res.UnitPatterns[i]) {
			t.Errorf("unit %d diff: %v", i, back.UnitPatterns[i].Diff(res.UnitPatterns[i]))
		}
	}
	for path, set := range res.NodeSets {
		if !back.NodeSets[path].Equal(set) {
			t.Errorf("node %q differs", path)
		}
	}
	// TIDs survive with exact contents.
	for key, p := range res.Patterns {
		if back.Patterns[key].TIDs.Count() != p.TIDs.Count() {
			t.Errorf("pattern %s lost TIDs", p)
		}
	}
	// Files saved before the strict-paper join was removed carry its token:
	// false loads as if absent, and new files no longer write it.
	if strings.Contains(sb.String(), "strictpaper") {
		t.Error("SaveResult still writes the strictpaper token")
	}
	old := strings.Replace(sb.String(), " parallel=", " strictpaper=false parallel=", 1)
	if back, err = LoadResult(strings.NewReader(old), db); err != nil || !back.Patterns.Equal(res.Patterns) {
		t.Errorf("file with strictpaper=false: err %v", err)
	}
}

// TestIncrementalFromLoadedResult is the point of persistence: a loaded
// result must drive IncPartMiner exactly like the original.
func TestIncrementalFromLoadedResult(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	db := graph.RandomDatabase(rng, 8, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveResult(&sb, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResult(strings.NewReader(sb.String()), db)
	if err != nil {
		t.Fatal(err)
	}

	newDB := db.Clone()
	updated := applyRandomUpdates(rng, newDB, 0.4)
	incA, err := IncPartMiner(newDB, updated, res)
	if err != nil {
		t.Fatal(err)
	}
	incB, err := IncPartMiner(newDB, updated, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !incA.Patterns.Equal(incB.Patterns) {
		t.Fatalf("loaded result diverged: %v", incA.Patterns.Diff(incB.Patterns))
	}
	want := gspan.Mine(newDB, gspan.Options{MinSupport: 2, MaxEdges: 4})
	if !incB.Patterns.Equal(want) {
		t.Fatalf("loaded incremental wrong: %v", incB.Patterns.Diff(want))
	}
	if !incA.UF.Equal(incB.UF) || !incA.FI.Equal(incB.FI) || !incA.IF.Equal(incB.IF) {
		t.Error("UF/FI/IF classification differs after persistence")
	}
}

func TestSaveRejectsCustomUnitMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, UnitMinerIndexed: gspanUnit})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveResult(&sb, res); err == nil {
		t.Error("custom unit miner should be rejected")
	}
}

func TestSaveRejectsCustomMetis(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, Bisector: partition.Metis{CoarsenTo: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var sbBad strings.Builder
	if err := SaveResult(&sbBad, res); err == nil {
		t.Error("custom METIS parameters should be rejected")
	}
	// Default METIS is fine.
	res2, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, Bisector: partition.Metis{}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveResult(&sb, res2); err != nil {
		t.Errorf("default METIS should save: %v", err)
	}
	if _, err := LoadResult(strings.NewReader(sb.String()), db); err != nil {
		t.Errorf("default METIS should load: %v", err)
	}
}

func TestLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	cases := []struct{ name, in, want string }{
		{name: "removed option", in: "partminer-result v1\noptions minsup=2 k=2 maxedges=0 strictpaper=true parallel=false bisector=partition3\ndbsize 4\nunitsupport 1\nend\n",
			want: "saved with the removed StrictPaperJoin option; mine again"},
		{name: "bad header", in: "nope\n"},
		{name: "missing options", in: "partminer-result v1\nxxx\n"},
		{name: "bad dbsize", in: "partminer-result v1\noptions minsup=2 k=2 maxedges=0 strictpaper=false parallel=false bisector=partition3\ndbsize 99\nunitsupport 1\nend\n"},
		{name: "bad bisector", in: "partminer-result v1\noptions minsup=2 k=2 maxedges=0 strictpaper=false parallel=false bisector=zzz\ndbsize 4\nunitsupport 1\nend\n"},
		{name: "no patterns", in: "partminer-result v1\noptions minsup=2 k=2 maxedges=0 strictpaper=false parallel=false bisector=partition3\ndbsize 4\nunitsupport 1\nend\n"},
		{name: "truncated", in: "partminer-result v1\noptions minsup=2 k=2 maxedges=0 strictpaper=false parallel=false bisector=partition3\ndbsize 4\nunitsupport 1\nset patterns 3\n"},
	}
	for _, c := range cases {
		if _, err := LoadResult(strings.NewReader(c.in), db); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v; want one containing %q", c.name, err, c.want)
		}
	}
}

// TestSnapshotRoundTrip: the combined database+result snapshot must
// reconstruct both sides bit-for-bit — the warm-start format partserved
// restores from without re-mining.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := graph.RandomDatabase(rng, 10, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SaveSnapshot(&sb, res); err != nil {
		t.Fatal(err)
	}
	backDB, back, err := LoadSnapshot(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(backDB) != len(db) {
		t.Fatalf("database came back with %d graphs, want %d", len(backDB), len(db))
	}
	for i := range db {
		if !backDB[i].Equal(db[i]) {
			t.Fatalf("graph %d changed across the round trip", i)
		}
	}
	if !back.Patterns.Equal(res.Patterns) {
		t.Fatalf("patterns diff: %v", back.Patterns.Diff(res.Patterns))
	}
	for key, p := range res.Patterns {
		if !back.Patterns[key].TIDs.Equal(p.TIDs) {
			t.Fatalf("pattern %s: TIDs diverge across the round trip", p)
		}
	}
	for path, set := range res.NodeSets {
		if !back.NodeSets[path].Equal(set) {
			t.Errorf("node %q differs", path)
		}
	}
	// A restored snapshot must keep mining incrementally like the live one.
	newDB := backDB.Clone()
	var tids []int
	for tid := 0; tid < len(newDB); tid += 3 {
		if newDB[tid].VertexCount() >= 2 && newDB[tid].EdgeCount() > 0 {
			newDB[tid].Labels[0]++
			tids = append(tids, tid)
		}
	}
	incFromLoaded, err := IncPartMiner(newDB, tids, back)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PartMiner(newDB, res.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !incFromLoaded.Patterns.Equal(fresh.Patterns) {
		t.Fatalf("restored incremental diff: %v", incFromLoaded.Patterns.Diff(fresh.Patterns))
	}

	// Corrupt inputs are rejected, not misparsed.
	if _, _, err := LoadSnapshot(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("garbage accepted as snapshot")
	}
	if _, _, err := LoadSnapshot(strings.NewReader("partminer-snapshot v1\nt # 0\nv 0 1\n")); err == nil {
		t.Fatal("snapshot without result section accepted")
	}
}
