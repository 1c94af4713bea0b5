package partition

import (
	"reflect"
	"testing"

	"partminer/internal/datagen"
	"partminer/internal/graph"
)

// TestRebuildEqualsDBPartition is the licence for building a fold's tree
// from the previous one: over 50 seeded databases and every registered
// strategy, Rebuild after an update round returns what DBPartition of the
// updated database returns — every node's database graph for graph in
// the same vertex numbering, the leaves in the same order, the same
// Quality — while leaving the previous tree as it was and sharing the
// unchanged graphs' pieces with it.
func TestRebuildEqualsDBPartition(t *testing.T) {
	kinds := []datagen.UpdateKind{datagen.Relabel, datagen.AddEdge, datagen.AddVertex, datagen.RemoveEdge}
	for seed := int64(0); seed < 50; seed++ {
		cfg := datagen.Config{D: 12, T: 9, N: 4, L: 10, I: 3, Seed: seed}
		if seed%2 == 1 {
			cfg.Hubs = 2
		}
		db := datagen.Generate(cfg)
		newDB := db.Clone()
		updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.3, Kinds: kinds, N: 4, Seed: seed})
		isUpdated := make(map[int]bool)
		for _, tid := range updated {
			isUpdated[tid] = true
		}
		k := 2 + int(seed%4)
		for _, name := range Names() {
			b, _ := ByName(name)
			prev, err := DBPartition(db, k, b)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := DBPartition(db, k, b)
			got, err := Rebuild(prev, newDB, updated, b)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			want, _ := DBPartition(newDB, k, b)
			if !sameTree(got.Root, want.Root) {
				t.Fatalf("seed %d %s k=%d: rebuilt tree differs from DBPartition", seed, name, k)
			}
			if !sameTree(prev.Root, before.Root) {
				t.Fatalf("seed %d %s: Rebuild modified the previous tree", seed, name)
			}
			if !reflect.DeepEqual(got.Quality, want.Quality) {
				t.Errorf("seed %d %s: quality %+v; want %+v", seed, name, got.Quality, want.Quality)
			}
			gl, wl, pl := got.Leaves(), want.Leaves(), prev.Leaves()
			if len(gl) != k || len(got.Units) != k {
				t.Fatalf("seed %d %s: %d leaves, %d units; want %d", seed, name, len(gl), len(got.Units), k)
			}
			for i := range gl {
				if gl[i].UnitIndex != wl[i].UnitIndex || !sameDB(got.Units[i], want.Units[i]) {
					t.Errorf("seed %d %s: unit %d out of order", seed, name, i)
				}
				for tid, g := range gl[i].DB {
					if !isUpdated[tid] && g != pl[i].DB[tid] {
						t.Fatalf("seed %d %s: unchanged graph %d was bisected again in unit %d", seed, name, tid, i)
					}
				}
			}
		}
	}
}

func TestRebuildRejectsBadInput(t *testing.T) {
	db := datagen.Generate(datagen.Config{D: 6, T: 6, N: 3, L: 5, I: 2, Seed: 1})
	prev, err := DBPartition(db, 2, Partition3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(prev, db[:5], nil, Partition3); err == nil {
		t.Error("a database of another length should be refused")
	}
	if _, err := Rebuild(prev, db, []int{6}, Partition3); err == nil {
		t.Error("an out-of-range tid should be refused")
	}
}

func sameTree(a, b *Node) bool {
	if a.IsLeaf() != b.IsLeaf() || a.UnitIndex != b.UnitIndex || !sameDB(a.DB, b.DB) {
		return false
	}
	return a.IsLeaf() || (sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right))
}

func sameDB(a, b graph.Database) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
