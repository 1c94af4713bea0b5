package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// TestPartMinerEqualsGSpan is the end-to-end Theorem 3 check: PartMiner's
// recovered set equals direct whole-database mining, across unit counts
// and bisectors.
func TestPartMinerEqualsGSpan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 6, 6, 9, 3, 2)
		minSup := 2 + rng.Intn(2)
		want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: 4})
		for _, k := range []int{1, 2, 3, 4} {
			res, err := PartMiner(db, Options{MinSupport: minSup, K: k, MaxEdges: 4})
			if err != nil {
				t.Logf("k=%d: %v", k, err)
				return false
			}
			if !res.Patterns.Equal(want) {
				t.Logf("seed %d k=%d diff: %v", seed, k, res.Patterns.Diff(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestPartMinerBisectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := graph.RandomDatabase(rng, 8, 6, 9, 3, 2)
	for i := range db {
		db[i].BumpUpdateFreq(rng.Intn(db[i].VertexCount()), rng.Float64()*4)
	}
	minSup := 2
	want := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: 4})
	for _, b := range []partition.Bisector{
		partition.Partition1, partition.Partition2, partition.Partition3, partition.Metis{},
	} {
		res, err := PartMiner(db, Options{MinSupport: minSup, K: 2, Bisector: b, MaxEdges: 4})
		if err != nil {
			t.Fatalf("%T: %v", b, err)
		}
		if !res.Patterns.Equal(want) {
			t.Errorf("%T diff: %v", b, res.Patterns.Diff(want))
		}
	}
}

func TestPartMinerParallelEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := graph.RandomDatabase(rng, 8, 6, 9, 3, 2)
	serial, err := PartMiner(db, Options{MinSupport: 2, K: 4, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := PartMiner(db, Options{MinSupport: 2, K: 4, MaxEdges: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Patterns.Equal(par.Patterns) {
		t.Fatalf("parallel result differs: %v", serial.Patterns.Diff(par.Patterns))
	}
	// Support equality is not enough: the emit paths derive support from
	// the TID bitsets, so the bitsets themselves must match too.
	for key, p := range serial.Patterns {
		q := par.Patterns[key]
		if p.TIDs == nil || q.TIDs == nil || !p.TIDs.Equal(q.TIDs) {
			t.Errorf("%s: serial TIDs %v, parallel TIDs %v", p.Code, p.TIDs, q.TIDs)
		}
	}
}

// gspanUnit is the reference miner as a unit-miner override.
func gspanUnit(ctx context.Context, _ int, db graph.Database, minSup, maxEdges int) (pattern.Set, error) {
	return gspan.MineContext(ctx, db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
}

func TestPartMinerGastonDefaultMatchesGSpanUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := graph.RandomDatabase(rng, 6, 6, 8, 2, 2)
	gastonRes, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	gspanRes, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4, UnitMinerIndexed: gspanUnit})
	if err != nil {
		t.Fatal(err)
	}
	if !gastonRes.Patterns.Equal(gspanRes.Patterns) {
		t.Fatalf("unit miner choice changed the result: %v", gastonRes.Patterns.Diff(gspanRes.Patterns))
	}
}

func TestPartMinerResultMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := graph.RandomDatabase(rng, 6, 6, 8, 3, 2)
	res, err := PartMiner(db, Options{MinSupport: 4, K: 4, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnitPatterns) != 4 || len(res.UnitTimes) != 4 {
		t.Errorf("unit metadata sizes: %d patterns, %d times; want 4",
			len(res.UnitPatterns), len(res.UnitTimes))
	}
	if res.UnitSupport != 1 { // ceil(4/2^2)
		t.Errorf("UnitSupport = %d; want 1", res.UnitSupport)
	}
	if res.Tree == nil || res.Tree.K != 4 {
		t.Error("partition tree missing")
	}
	if res.AggregateTime() < res.MergeTime {
		t.Error("aggregate time should include merge time")
	}
}

func TestPartMinerErrors(t *testing.T) {
	db := graph.Database{}
	if _, err := PartMiner(db, Options{MinSupport: 1, K: -2}); err == nil {
		t.Error("negative K should error")
	}
	res, err := PartMiner(db, Options{MinSupport: 1})
	if err != nil {
		t.Fatalf("empty database should mine cleanly: %v", err)
	}
	if len(res.Patterns) != 0 {
		t.Error("empty database produced patterns")
	}
}

func TestAbsoluteSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := graph.RandomDatabase(rng, 50, 4, 4, 2, 2)
	if s := AbsoluteSupport(db, 0.04); s != 2 {
		t.Errorf("4%% of 50 = %d; want 2", s)
	}
	if s := AbsoluteSupport(db, 0.0001); s != 1 {
		t.Errorf("tiny fraction should floor to 1, got %d", s)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{4, 2, 2}, {5, 2, 3}, {1, 4, 1}, {0, 2, 1}, {8, 8, 1}, {9, 8, 2},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d; want %d", c.a, c.b, got, c.want)
		}
	}
}
