package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"partminer/internal/codec"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

func saveSnapshot(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameSet fails unless got has want's keys, supports and TIDs exactly.
func sameSet(t *testing.T, what string, got, want pattern.Set) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: %v", what, got.Diff(want))
	}
	for key, p := range want {
		if !got[key].TIDs.Equal(p.TIDs) {
			t.Fatalf("%s: pattern %s TIDs %v, want %v", what, key, got[key].TIDs, p.TIDs)
		}
	}
}

// TestSaveLoadRoundTrip: a snapshot brings back the database bit for bit,
// update frequencies included, and every pattern, unit and node set with
// its keys, supports and TIDs; saving one result twice, or saving what
// was loaded, writes the same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := graph.RandomDatabase(rng, 8, 6, 8, 3, 2)
	db[1].BumpUpdateFreq(2, 0.1)
	db[5].BumpUpdateFreq(0, 3)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 3, MaxEdges: 4, GrowthEnvelope: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	frame := saveSnapshot(t, res)
	if again := saveSnapshot(t, res); !bytes.Equal(again, frame) {
		t.Error("two saves of one result differ")
	}
	backDB, back, err := LoadSnapshot(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(backDB) != len(db) {
		t.Fatalf("database came back with %d graphs, want %d", len(backDB), len(db))
	}
	for i := range db {
		if !backDB[i].Equal(db[i]) || backDB[i].ID != db[i].ID || !reflect.DeepEqual(backDB[i].UFreq, db[i].UFreq) {
			t.Fatalf("graph %d changed across the round trip", i)
		}
	}
	sameSet(t, "patterns", back.Patterns, res.Patterns)
	if len(back.UnitPatterns) != len(res.UnitPatterns) {
		t.Fatalf("unit set count %d != %d", len(back.UnitPatterns), len(res.UnitPatterns))
	}
	for i := range res.UnitPatterns {
		sameSet(t, "unit", back.UnitPatterns[i], res.UnitPatterns[i])
	}
	if len(back.NodeSets) != len(res.NodeSets) {
		t.Fatalf("node set count %d != %d", len(back.NodeSets), len(res.NodeSets))
	}
	for path, set := range res.NodeSets {
		sameSet(t, "node "+path, back.NodeSets[path], set)
	}
	if back.UnitSupport != res.UnitSupport {
		t.Errorf("UnitSupport %d != %d", back.UnitSupport, res.UnitSupport)
	}
	if o, p := back.Options, res.Options; o.MinSupport != p.MinSupport || o.K != p.K || o.MaxEdges != p.MaxEdges ||
		o.GrowthEnvelope != p.GrowthEnvelope || o.Parallel != p.Parallel {
		t.Errorf("options %+v came back as %+v", p, o)
	}
	if resaved := saveSnapshot(t, back); !bytes.Equal(resaved, frame) {
		t.Error("saving a loaded snapshot changes its bytes")
	}
}

// TestIncrementalFromLoadedResult is the point of persistence: a loaded
// snapshot drives IncPartMiner exactly like the original, to gSpan's
// answer, because it folds against the database it carries. Another
// database of the same size cannot stand in for it: its graphs differ
// from the snapshot's without being listed as updated, which is refused.
func TestIncrementalFromLoadedResult(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	db := graph.RandomDatabase(rng, 8, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	loadedDB, loaded, err := LoadSnapshot(bytes.NewReader(saveSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}

	newDB := loadedDB.Clone()
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

	other := graph.RandomDatabase(rand.New(rand.NewSource(99)), len(db), 6, 8, 3, 2)
	otherNext := other.Clone()
	if _, err := IncPartMiner(otherNext, applyRandomUpdates(rng, otherNext, 0.4), loaded); err == nil {
		t.Fatal("a fold of another database against the loaded snapshot was accepted")
	}
}

func TestSaveRejectsCustomUnitMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, UnitMinerIndexed: gspanUnit})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(&bytes.Buffer{}, res); err == nil {
		t.Error("custom unit miner should be rejected")
	}
	if err := SaveSnapshot(&bytes.Buffer{}, res.Portable()); err != nil {
		t.Errorf("the portable copy should save: %v", err)
	}
}

func TestSaveRejectsCustomMetis(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, Bisector: partition.Metis{CoarsenTo: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(&bytes.Buffer{}, res); err == nil {
		t.Error("custom METIS parameters should be rejected")
	}
	// Default METIS is fine.
	res2, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3, Bisector: partition.Metis{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(bytes.NewReader(saveSnapshot(t, res2))); err != nil {
		t.Errorf("default METIS should round-trip: %v", err)
	}
}

// TestLoadErrors: snapshots whose frame is sound but whose contents do
// not fit together are refused with an error naming the fault, before a
// partition tree is built; pre-codec text files get a named refusal.
func TestLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := graph.RandomDatabase(rng, 4, 5, 6, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	var good snapshot
	if err := codec.Decode(codec.KindSnapshot, saveSnapshot(t, res), &good); err != nil {
		t.Fatal(err)
	}
	if len(good.Nodes) == 0 || len(good.Patterns) == 0 {
		t.Fatal("the fixture needs node sets and patterns")
	}
	cases := []struct {
		name, want string
		edit       func(s *snapshot)
	}{
		{"K far above the unit sets", "2 unit sets for K = 1099511627776", func(s *snapshot) { s.K = 1 << 40 }},
		{"K below 1", "K must be >= 1", func(s *snapshot) { s.K = -3 }},
		{"unknown bisector", `unknown strategy "zzz"`, func(s *snapshot) { s.Bisector = "zzz" }},
		{"duplicate node", "duplicate", func(s *snapshot) { s.Nodes = append(s.Nodes, s.Nodes[0]) }},
		{"TID past the database", "outside [0, 4)", func(s *snapshot) {
			s.Units[1] = []codec.Pattern{{Code: []int{0, 1, 0, 0, 0}, Support: 1, TIDs: []int{4}}}
		}},
		{"database edge out of range", "out of range", func(s *snapshot) { s.DB[0].Edges = append(s.DB[0].Edges, 0, 99, 0) }},
	}
	for _, c := range cases {
		s := good
		s.Units = append([][]codec.Pattern(nil), good.Units...)
		s.DB = append([]codec.Graph(nil), good.DB...)
		s.DB[0].Edges = append([]int(nil), good.DB[0].Edges...)
		c.edit(&s)
		frame, err := codec.Encode(codec.KindSnapshot, &s)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, _, err = LoadSnapshot(bytes.NewReader(frame))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v; want one containing %q", c.name, err, c.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusal took %v", c.name, d)
		}
	}
	for _, old := range []string{
		"partminer-snapshot v1\nt # 0\nv 0 1\npartminer-result v1\n",
		"partminer-result v1\noptions minsup=2 k=2\n",
	} {
		_, _, err := LoadSnapshot(strings.NewReader(old))
		header, _, _ := strings.Cut(old, "\n")
		if err == nil || !strings.Contains(err.Error(), "pre-codec text file") || !strings.Contains(err.Error(), header) {
			t.Errorf("%q: error %v; want the pre-codec refusal naming its header", header, err)
		}
	}
	set, err := codec.EncodeSet(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"garbage": []byte("garbage\n"), "empty": nil, "a set frame": set} {
		if _, _, err := LoadSnapshot(bytes.NewReader(in)); err == nil {
			t.Errorf("%s accepted as a snapshot", name)
		}
	}
}

// TestSnapshotRoundTrip: a restored snapshot keeps mining incrementally
// like the live one — the warm start partserved restores from.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := graph.RandomDatabase(rng, 10, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	backDB, back, err := LoadSnapshot(bytes.NewReader(saveSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}
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
}

// TestSnapshotCorruptionRefused: every single-byte flip and every
// truncation of a small snapshot is refused, never loaded or panicked on.
func TestSnapshotCorruptionRefused(t *testing.T) {
	db := graph.RandomDatabase(rand.New(rand.NewSource(56)), 3, 4, 4, 2, 2)
	res, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	frame := saveSnapshot(t, res)
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x01
		if _, _, err := LoadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatalf("a flip of byte %d of %d was loaded", i, len(frame))
		}
		if _, _, err := LoadSnapshot(bytes.NewReader(frame[:i])); err == nil {
			t.Fatalf("a truncation to %d of %d bytes was loaded", i, len(frame))
		}
	}
}
