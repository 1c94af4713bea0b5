package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddVertexAndEdge(t *testing.T) {
	g := New(7)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(1)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("vertex ids = %d,%d,%d; want 0,1,2", a, b, c)
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, c, 6); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.VertexCount() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("counts = %d vertices, %d edges; want 3, 2", g.VertexCount(), g.EdgeCount())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("edge (a,b) should exist in both directions")
	}
	if l, ok := g.EdgeLabel(b, c); !ok || l != 6 {
		t.Errorf("EdgeLabel(b,c) = %d,%v; want 6,true", l, ok)
	}
	if _, ok := g.EdgeLabel(a, c); ok {
		t.Error("EdgeLabel(a,c) should not exist")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(0)
	g.AddVertex(1)
	g.AddVertex(1)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop should be rejected")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range endpoint should be rejected")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Error("duplicate edge should be rejected")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d after failed inserts; want 1", g.EdgeCount())
	}
}

func TestSetEdgeLabel(t *testing.T) {
	g := New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	g.MustAddEdge(0, 1, 3)
	if !g.SetEdgeLabel(1, 0, 9) {
		t.Fatal("SetEdgeLabel reported missing edge")
	}
	if l, _ := g.EdgeLabel(0, 1); l != 9 {
		t.Errorf("label after relabel = %d; want 9", l)
	}
	if g.SetEdgeLabel(0, 0, 1) {
		t.Error("SetEdgeLabel on missing edge should report false")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New(0)
	for i := 0; i < 5; i++ {
		g.AddVertex(0)
	}
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(3, 4, 0)
	if g.Connected() {
		t.Error("graph with two components reported connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v; want 2 components", comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d,%d; want 3,2", len(comps[0]), len(comps[1]))
	}
	g.MustAddEdge(2, 3, 0)
	if !g.Connected() {
		t.Error("graph should be connected after bridging edge")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New(0).Connected() {
		t.Error("empty graph should count as connected")
	}
	g := New(0)
	g.AddVertex(1)
	if !g.Connected() {
		t.Error("single vertex should count as connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(3)
	for i := 0; i < 4; i++ {
		g.AddVertex(i)
	}
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 11)
	g.MustAddEdge(2, 3, 12)
	g.MustAddEdge(3, 0, 13)
	sub, remap := g.InducedSubgraph([]int{1, 2, 3})
	if sub.ID != 3 {
		t.Errorf("sub.ID = %d; want 3", sub.ID)
	}
	if sub.VertexCount() != 3 || sub.EdgeCount() != 2 {
		t.Fatalf("sub has %d vertices, %d edges; want 3, 2", sub.VertexCount(), sub.EdgeCount())
	}
	if remap[0] != -1 {
		t.Errorf("remap[0] = %d; want -1", remap[0])
	}
	if l, ok := sub.EdgeLabel(remap[1], remap[2]); !ok || l != 11 {
		t.Errorf("edge (1,2) in subgraph: label %d ok=%v; want 11,true", l, ok)
	}
	if sub.HasEdge(remap[1], remap[3]) {
		t.Error("subgraph should not contain edge (1,3)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(1)
	g.AddVertex(0)
	g.AddVertex(1)
	g.MustAddEdge(0, 1, 2)
	g.BumpUpdateFreq(0, 1.5)
	c := g.Clone()
	c.AddVertex(9)
	c.MustAddEdge(0, 2, 0)
	c.SetEdgeLabel(0, 1, 7)
	c.UFreq[0] = 99
	if g.VertexCount() != 2 || g.EdgeCount() != 1 {
		t.Error("mutating clone changed original shape")
	}
	if l, _ := g.EdgeLabel(0, 1); l != 2 {
		t.Error("mutating clone changed original edge label")
	}
	if g.UFreq[0] != 1.5 {
		t.Error("mutating clone changed original ufreq")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := RandomDatabase(rng, 10, 8, 12, 4, 3)
	db[0].BumpUpdateFreq(2, 0.75)
	var b strings.Builder
	if err := WriteDatabase(&b, db); err != nil {
		t.Fatalf("WriteDatabase: %v", err)
	}
	got, err := ReadDatabase(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadDatabase: %v", err)
	}
	if len(got) != len(db) {
		t.Fatalf("round trip produced %d graphs; want %d", len(got), len(db))
	}
	for i := range db {
		if got[i].ID != db[i].ID {
			t.Errorf("graph %d: ID %d != %d", i, got[i].ID, db[i].ID)
		}
		if got[i].VertexCount() != db[i].VertexCount() || got[i].EdgeCount() != db[i].EdgeCount() {
			t.Errorf("graph %d: shape mismatch after round trip", i)
		}
		for v := range db[i].Labels {
			if got[i].Labels[v] != db[i].Labels[v] {
				t.Errorf("graph %d vertex %d: label %d != %d", i, v, got[i].Labels[v], db[i].Labels[v])
			}
			for _, e := range db[i].Adj[v] {
				if l, ok := got[i].EdgeLabel(v, e.To); !ok || l != e.Label {
					t.Errorf("graph %d: edge (%d,%d) lost or relabeled", i, v, e.To)
				}
			}
		}
	}
	if got[0].UFreq == nil || got[0].UFreq[2] != 0.75 {
		t.Error("update frequency lost in round trip")
	}
}

func TestReadDatabaseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"vertex before header", "v 0 1\n"},
		{"edge before header", "e 0 1 2\n"},
		{"bad graph id", "t # x\n"},
		{"vertex out of order", "t # 0\nv 1 0\n"},
		{"edge endpoint missing", "t # 0\nv 0 1\ne 0 1 2\n"},
		{"duplicate edge", "t # 0\nv 0 1\nv 1 1\ne 0 1 2\ne 1 0 3\n"},
		{"self loop", "t # 0\nv 0 1\ne 0 0 2\n"},
		{"unknown record", "t # 0\nq 1 2\n"},
		{"malformed vertex", "t # 0\nv 0\n"},
		{"bad ufreq", "t # 0\nv 0 1 zzz\n"},
	}
	for _, c := range cases {
		if _, err := ReadDatabase(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestReadDatabaseSkipsCommentsAndBlanks(t *testing.T) {
	in := "% comment\n\nt # 5\n% another\nv 0 1\nv 1 2\n\ne 0 1 3\n"
	db, err := ReadDatabase(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadDatabase: %v", err)
	}
	if len(db) != 1 || db[0].ID != 5 || db[0].EdgeCount() != 1 {
		t.Fatalf("parsed %+v; want one graph id=5 with one edge", db)
	}
}

// TestReadDatabaseLongLine checks that a line longer than 64 KiB still
// parses: the scanner starts small and grows to its 16 MiB limit.
func TestReadDatabaseLongLine(t *testing.T) {
	in := "t # 3\n% " + strings.Repeat("x", 100<<10) + "\nv 0 1\nv 1 2\ne 0 1 3\n"
	db, err := ReadDatabase(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadDatabase: %v", err)
	}
	if len(db) != 1 || db[0].ID != 3 || db[0].EdgeCount() != 1 {
		t.Fatalf("parsed %+v; want one graph id=3 with one edge", db)
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		m := n - 1 + rng.Intn(n)
		g := RandomConnected(rng, 0, n, m, 3, 2)
		return g.Connected() && g.VertexCount() == n && g.EdgeCount() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomConnectedEdgeCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomConnected(rng, 0, 4, 100, 2, 2)
	if g.EdgeCount() != 6 {
		t.Errorf("EdgeCount = %d; want complete-graph bound 6", g.EdgeCount())
	}
}

func TestDatabaseMaxLabelAndTotals(t *testing.T) {
	var db Database
	if db.MaxLabel() != -1 {
		t.Errorf("empty MaxLabel = %d; want -1", db.MaxLabel())
	}
	g := New(0)
	g.AddVertex(3)
	g.AddVertex(1)
	g.MustAddEdge(0, 1, 9)
	db = Database{g}
	if db.MaxLabel() != 9 {
		t.Errorf("MaxLabel = %d; want 9", db.MaxLabel())
	}
	if db.TotalEdges() != 1 {
		t.Errorf("TotalEdges = %d; want 1", db.TotalEdges())
	}
}

func TestSortAdjacencyDeterministic(t *testing.T) {
	g := New(0)
	for i := 0; i < 4; i++ {
		g.AddVertex(3 - i)
	}
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(0, 2, 0)
	g.MustAddEdge(0, 1, 0)
	if g.AdjacencySorted() {
		t.Error("fresh graph should not claim sorted adjacency")
	}
	g.SortAdjacency()
	if !g.AdjacencySorted() {
		t.Error("SortAdjacency should establish the invariant")
	}
	adj := g.Adj[0]
	// Neighbors sorted by id — the total order EdgeLabel binary-searches.
	want := []int{1, 2, 3}
	for i, e := range adj {
		if e.To != want[i] {
			t.Fatalf("adjacency order = %v; want neighbors %v", adj, want)
		}
	}
}

// star builds a hub vertex 0 connected to n spokes, each edge labeled with
// its spoke id, inserting spokes in descending order so the unsorted
// adjacency list is reversed.
func star(n int) *Graph {
	g := New(0)
	g.AddVertex(0)
	for i := 0; i < n; i++ {
		g.AddVertex(1)
	}
	for v := n; v >= 1; v-- {
		g.MustAddEdge(0, v, v)
	}
	return g
}

func TestEdgeLabelBinaryAndLinearPathsAgree(t *testing.T) {
	// Degree 20 > linearScanMax, so the sorted graph exercises the binary
	// search while the unsorted one exercises the linear fallback.
	const n = 20
	unsorted, sorted := star(n), star(n)
	sorted.SortAdjacency()
	if unsorted.AdjacencySorted() || !sorted.AdjacencySorted() {
		t.Fatal("sortedness flags wrong")
	}
	for v := 1; v <= n; v++ {
		lu, oku := unsorted.EdgeLabel(0, v)
		ls, oks := sorted.EdgeLabel(0, v)
		if !oku || !oks || lu != v || ls != v {
			t.Fatalf("EdgeLabel(0,%d): linear=%d,%v binary=%d,%v; want %d on both paths", v, lu, oku, ls, oks, v)
		}
		if !sorted.HasEdge(v, 0) {
			t.Fatalf("HasEdge(%d,0) false on sorted graph", v)
		}
	}
	// Misses must agree too, including out-of-range probes.
	for _, v := range []int{0, n + 1, -1} {
		if _, ok := sorted.EdgeLabel(0, v); ok {
			t.Errorf("EdgeLabel(0,%d) should miss on sorted graph", v)
		}
		if _, ok := unsorted.EdgeLabel(0, v); ok {
			t.Errorf("EdgeLabel(0,%d) should miss on unsorted graph", v)
		}
	}
	if sorted.HasEdge(1, 2) {
		t.Error("spokes are not adjacent to each other")
	}
}

func TestAddEdgeInvalidatesSortedAdjacency(t *testing.T) {
	g2 := star(10)
	g2.SortAdjacency()
	if err := g2.AddEdge(0, 3, 7); err == nil {
		t.Error("duplicate edge should be rejected under sorted adjacency")
	}
	if !g2.AdjacencySorted() {
		t.Error("failed AddEdge should not invalidate the invariant")
	}
	if err := g2.AddEdge(1, 2, 7); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g2.AdjacencySorted() {
		t.Error("successful AddEdge should invalidate the invariant")
	}
	// Clone carries the flag.
	g3 := star(10)
	g3.SortAdjacency()
	if !g3.Clone().AdjacencySorted() {
		t.Error("Clone should preserve the sorted-adjacency flag")
	}
}

func TestBumpUpdateFreqAllocatesLazily(t *testing.T) {
	g := New(0)
	g.AddVertex(0)
	g.AddVertex(0)
	if g.UpdateFreq(1) != 0 {
		t.Error("UpdateFreq on nil slice should be 0")
	}
	g.BumpUpdateFreq(1, 2)
	if g.UpdateFreq(1) != 2 || g.UpdateFreq(0) != 0 {
		t.Errorf("UFreq = %v; want [0 2]", g.UFreq)
	}
	// New vertices after allocation must extend the slice.
	v := g.AddVertex(0)
	if g.UpdateFreq(v) != 0 {
		t.Error("new vertex should start with zero ufreq")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 6)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge reported missing edge")
	}
	if g.EdgeCount() != 1 || g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge not fully removed")
	}
	if !g.HasEdge(1, 2) {
		t.Error("unrelated edge removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("double removal should report false")
	}
	if g.RemoveEdge(0, 9) || g.RemoveEdge(-1, 0) {
		t.Error("out-of-range removal should report false")
	}
	// Re-adding after removal must work.
	if err := g.AddEdge(0, 1, 7); err != nil {
		t.Fatalf("re-add after removal: %v", err)
	}
	if l, _ := g.EdgeLabel(0, 1); l != 7 {
		t.Error("re-added edge has wrong label")
	}
}

// TestFingerprintFollowsEqual: graphs that are Equal — whatever their
// adjacency order, ID or update frequencies — share a fingerprint, and
// each kind of in-place change, including two relabels that swap labels
// or offset each other, moves it.
func TestFingerprintFollowsEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		g := RandomConnected(rng, i, 8, 12, 3, 3)
		c := g.Clone()
		c.ID = 99
		c.BumpUpdateFreq(0, 1)
		for _, adj := range c.Adj {
			rng.Shuffle(len(adj), func(a, b int) { adj[a], adj[b] = adj[b], adj[a] })
		}
		if !g.Equal(c) || g.Fingerprint() != c.Fingerprint() {
			t.Fatalf("graph %d: an Equal copy has another fingerprint", i)
		}
		e := g.Adj[0][0]
		changes := map[string]func(h *Graph){
			"relabel vertex":  func(h *Graph) { h.Labels[1] += 3 },
			"swap labels":     func(h *Graph) { h.Labels[0], h.Labels[1] = h.Labels[1]+5, h.Labels[0]+5 },
			"offset relabels": func(h *Graph) { h.Labels[0] += 2; h.Labels[1] -= 2 },
			"relabel edge":    func(h *Graph) { h.SetEdgeLabel(0, e.To, e.Label+1) },
			"remove edge":     func(h *Graph) { h.RemoveEdge(0, e.To) },
			"add vertex":      func(h *Graph) { h.AddVertex(0) },
			"add edge": func(h *Graph) {
				for v := 1; v < h.VertexCount(); v++ {
					if !h.HasEdge(0, v) {
						h.MustAddEdge(0, v, 0)
						return
					}
				}
				h.MustAddEdge(0, h.AddVertex(0), 0)
			},
		}
		for name, change := range changes {
			h := g.Clone()
			change(h)
			if h.Equal(g) || h.Fingerprint() == g.Fingerprint() {
				t.Errorf("graph %d: %s left the fingerprint unchanged", i, name)
			}
		}
	}
}
