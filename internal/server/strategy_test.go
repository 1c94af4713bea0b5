package server

import (
	"context"
	"testing"

	"partminer/internal/core"
	"partminer/internal/partition"
)

// TestStatsPartitionQuality: /v1/stats reports the served snapshot's
// partition quality once, as partition_quality, and it follows folds.
func TestStatsPartitionQuality(t *testing.T) {
	db := testDB(5, 8)
	cfg := testConfig()
	cfg.Mine.K = 4
	s := mustStart(t, db, cfg)
	if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 0, U: 0, Label: 9}}); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Partition == nil {
		t.Fatal("stats missing partition quality")
	}
	if st.Partition.K != 4 {
		t.Errorf("partition quality K = %d; want 4", st.Partition.K)
	}
	if st.Partition.Strategy != "partition3" {
		t.Errorf("partition quality strategy = %q; want the default partition3", st.Partition.Strategy)
	}
	if st.Exec.Partition != nil {
		t.Error("stats repeat the partition quality under exec.partition")
	}
}

// TestServeNewStrategies: the server must run end-to-end under each of
// the new strategies, fold updates, and keep results identical to a
// fresh mine — the service-level face of the differential contract.
func TestServeNewStrategies(t *testing.T) {
	for _, name := range []string{"vertexcut", "community", "bfs"} {
		p, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		db := testDB(11, 6)
		cfg := testConfig()
		cfg.Mine.Bisector = p
		s := mustStart(t, db, cfg)
		if _, err := s.Apply(context.Background(), []Op{{Kind: OpRelabelVertex, TID: 1, U: 0, Label: 7}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := s.Snapshot()
		requireFreshEqual(t, snap, core.Options{MinSupport: 2, K: 2, MaxEdges: 4, Bisector: p})
		if snap.Res.PartitionQuality.Strategy != name {
			t.Errorf("%s: snapshot quality strategy = %q", name, snap.Res.PartitionQuality.Strategy)
		}
	}
}
