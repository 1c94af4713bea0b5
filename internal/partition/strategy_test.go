package partition

import (
	"math/rand"
	"strings"
	"testing"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"bfs", "community", "metis", "partition1", "partition2", "partition3", "vertexcut"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v; want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v; want %v", names, want)
		}
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if got, ok := NameOf(p); !ok || got != n {
			t.Errorf("NameOf(ByName(%q)) = %q, %v", n, got, ok)
		}
	}
}

func TestByNameUnknownListsStrategies(t *testing.T) {
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not mention registered strategy %q", err, n)
		}
	}
}

func TestNameOf(t *testing.T) {
	cases := []struct {
		b    Bisector
		want string
	}{
		{Partition1, "partition1"},
		{Partition3, "partition3"},
		{Metis{}, "metis"},
		{VertexCut{}, "vertexcut"},
		{Community{}, "community"},
		{BFSExpansion{}, "bfs"},
		{Partition2, "partition2"},
	}
	for _, c := range cases {
		name, ok := NameOf(c.b)
		if !ok || name != c.want {
			t.Errorf("NameOf(%T) = %q, %v; want %q", c.b, name, ok, c.want)
		}
	}
	if _, ok := NameOf(Metis{CoarsenTo: 3}); ok {
		t.Error("NameOf should not match a Metis with custom parameters")
	}
	if _, ok := NameOf(Criteria{Lambda1: 0.25, Lambda2: 0.25}); ok {
		t.Error("NameOf should not match an unregistered criteria mix")
	}
}

// TestStrategiesBisectAndRecombine exercises every registered strategy on
// random connected graphs: the side vector must cover every vertex with
// both sides non-empty (whenever the graph has >= 2 vertices), and
// splitting then recombining must reproduce the original graph up to
// isomorphism — the property DBPartition's correctness rests on.
func TestStrategiesBisectAndRecombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(14)
		g := graph.RandomConnected(rng, trial, n, n+rng.Intn(n), 4, 3)
		for i := 0; i < 3; i++ {
			g.BumpUpdateFreq(rng.Intn(g.VertexCount()), rng.Float64()*5)
		}
		for _, name := range Names() {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			side := p.Bisect(g)
			if len(side) != g.VertexCount() {
				t.Fatalf("%s: side length %d; want %d", name, len(side), g.VertexCount())
			}
			if !bothSidesNonEmpty(side) {
				t.Fatalf("%s: empty side on %d-vertex graph (side=%v)", name, n, side)
			}
			p1, p2 := GraphPart2(g, p)
			back, err := Recombine(p1, p2)
			if err != nil {
				t.Fatalf("%s: recombine: %v", name, err)
			}
			if !dfscode.MinCode(back).Equal(dfscode.MinCode(g)) {
				t.Fatalf("%s: recombined graph not isomorphic to original", name)
			}
		}
	}
}

// TestStrategiesDeterministic: the same strategy on the same graph must
// produce the same side vector — partitioning determinism is what lets
// persistence rebuild trees and IncPartMiner compare pieces.
func TestStrategiesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomConnected(rng, 0, 16, 26, 4, 3)
	for _, name := range Names() {
		p, _ := ByName(name)
		a, b := p.Bisect(g), p.Bisect(g)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: non-deterministic bisection at vertex %d", name, i)
				break
			}
		}
	}
}

func TestStrategiesTrivialGraphs(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		empty := graph.New(0)
		if side := p.Bisect(empty); len(side) != 0 {
			t.Errorf("%s: empty graph gave side of length %d", name, len(side))
		}
		one := graph.New(0)
		one.AddVertex(1)
		if side := p.Bisect(one); len(side) != 1 {
			t.Errorf("%s: 1-vertex graph gave side of length %d", name, len(side))
		}
		two := graph.New(0)
		two.AddVertex(1)
		two.AddVertex(2)
		two.MustAddEdge(0, 1, 0)
		if side := p.Bisect(two); !bothSidesNonEmpty(side) {
			t.Errorf("%s: 2-vertex graph should split 1/1, got %v", name, side)
		}
	}
}

// TestVertexCutSplitsHub: on a star graph the hub must straddle the cut
// (every strategy would cut hub edges, but vertex-cut is designed to
// split the hub's edge set roughly in half rather than cut one edge).
func TestVertexCutSplitsHub(t *testing.T) {
	g := graph.New(0)
	hub := g.AddVertex(9)
	for i := 0; i < 10; i++ {
		v := g.AddVertex(i % 3)
		g.MustAddEdge(hub, v, 0)
	}
	side := VertexCut{}.Bisect(g)
	onA := 0
	for i := 1; i < g.VertexCount(); i++ {
		if side[i] == side[hub] {
			onA++
		}
	}
	// The hub's side should hold a near-half share of the leaves: the
	// greedy balanced placement cannot pile everything on one side.
	if onA < 3 || onA > 7 {
		t.Errorf("vertex-cut placed %d of 10 leaves with the hub; want a balanced split", onA)
	}
}

func TestQualityMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := graph.RandomDatabase(rng, 8, 10, 16, 3, 2)
	totalEdges := 0
	for _, g := range db {
		totalEdges += g.EdgeCount()
	}
	for _, name := range Names() {
		p, _ := ByName(name)
		tree, err := DBPartition(db, 4, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := tree.Quality
		if q.Strategy != name {
			t.Errorf("%s: quality strategy = %q", name, q.Strategy)
		}
		if q.K != 4 || len(q.UnitEdges) != 4 {
			t.Errorf("%s: K=%d UnitEdges=%v; want 4 units", name, q.K, q.UnitEdges)
		}
		if q.TotalEdges != totalEdges {
			t.Errorf("%s: TotalEdges=%d; want %d", name, q.TotalEdges, totalEdges)
		}
		// Cut accounting must agree with the duplicated edges actually in
		// the units: sum(unit edges) = total + cut.
		sum := 0
		for _, e := range q.UnitEdges {
			sum += e
		}
		if sum != q.TotalEdges+q.CutEdges {
			t.Errorf("%s: unit edges sum %d != total %d + cut %d", name, sum, q.TotalEdges, q.CutEdges)
		}
		if q.ReplicationFactor < 1 {
			t.Errorf("%s: replication factor %v < 1", name, q.ReplicationFactor)
		}
		if q.Balance < 1 {
			t.Errorf("%s: balance %v < 1", name, q.Balance)
		}
	}
	// K=1: a single-unit tree has no splits, hence no cut and no
	// replication.
	tree, err := DBPartition(db, 1, Partition3)
	if err != nil {
		t.Fatal(err)
	}
	q := tree.Quality
	if q.CutEdges != 0 || q.EdgeCutRatio != 0 || q.ReplicationFactor != 1 || q.Balance != 1 {
		t.Errorf("K=1 quality should be trivial, got %+v", q)
	}
}
