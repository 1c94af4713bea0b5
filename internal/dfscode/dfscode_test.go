package dfscode

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"partminer/internal/graph"
)

// Labels used by the paper's Figure 1 example: edge labels a, b, c.
const (
	la = 0
	lb = 1
	lc = 2
)

// figure1Graph builds the graph G of Figure 1: vertices labeled 0,0,1,2 and
// edges (v0,v1):a, (v1,v2):a, (v1,v3):c, (v3,v0):b using T1's vertex
// numbering.
func figure1Graph() *graph.Graph {
	g := graph.New(0)
	g.AddVertex(0) // v0
	g.AddVertex(0) // v1
	g.AddVertex(1) // v2
	g.AddVertex(2) // v3
	g.MustAddEdge(0, 1, la)
	g.MustAddEdge(1, 2, la)
	g.MustAddEdge(1, 3, lc)
	g.MustAddEdge(3, 0, lb)
	return g
}

func TestFigure1MinDFSCode(t *testing.T) {
	g := figure1Graph()
	got := MinCode(g)
	want := Code{
		{I: 0, J: 1, LI: 0, LE: la, LJ: 0},
		{I: 1, J: 2, LI: 0, LE: la, LJ: 1},
		{I: 1, J: 3, LI: 0, LE: lc, LJ: 2},
		{I: 3, J: 0, LI: 2, LE: lb, LJ: 0},
	}
	if !got.Equal(want) {
		t.Fatalf("MinCode(G) = %v; want Figure 1's code(G,T1) %v", got, want)
	}
	if !IsCanonical(got) {
		t.Error("minimum code must be canonical")
	}
}

func TestFigure1NonMinimalCodes(t *testing.T) {
	// code(G, T2) from Figure 1(c): a valid DFS code of the same graph
	// that is not minimal.
	t2 := Code{
		{I: 0, J: 1, LI: 0, LE: la, LJ: 0},
		{I: 1, J: 2, LI: 0, LE: lb, LJ: 2},
		{I: 2, J: 0, LI: 2, LE: lc, LJ: 0},
		{I: 0, J: 3, LI: 0, LE: la, LJ: 1},
	}
	if IsCanonical(t2) {
		t.Error("code(G,T2) should not be canonical")
	}
	min := MinCode(t2.Graph())
	if !min.Equal(MinCode(figure1Graph())) {
		t.Errorf("T2's graph has min code %v; want the Figure 1 minimum", min)
	}

	// code(G, T3) from Figure 1(d). Note: as printed in the paper's text,
	// T3 swaps the b/c edge labels relative to a true DFS of G, so its
	// graph is not isomorphic to G; we only assert non-canonicality.
	t3 := Code{
		{I: 0, J: 1, LI: 0, LE: la, LJ: 0},
		{I: 1, J: 2, LI: 0, LE: lc, LJ: 2},
		{I: 2, J: 0, LI: 2, LE: lb, LJ: 0},
		{I: 0, J: 3, LI: 0, LE: la, LJ: 1},
	}
	if IsCanonical(t3) {
		t.Error("code(G,T3) should not be canonical")
	}
}

func TestEdgeCodeOrder(t *testing.T) {
	fwd01 := EdgeCode{I: 0, J: 1, LI: 0, LE: 0, LJ: 0}
	fwd12 := EdgeCode{I: 1, J: 2, LI: 0, LE: 0, LJ: 0}
	fwd02 := EdgeCode{I: 0, J: 2, LI: 0, LE: 0, LJ: 0}
	back20 := EdgeCode{I: 2, J: 0, LI: 0, LE: 0, LJ: 0}
	back21 := EdgeCode{I: 2, J: 1, LI: 0, LE: 0, LJ: 0}

	if !Less(fwd01, fwd12) {
		t.Error("forward (0,1) should precede forward (1,2)")
	}
	if !Less(fwd12, fwd02) {
		t.Error("forward (1,2) should precede forward (0,2): deeper source first")
	}
	if !Less(back20, back21) {
		t.Error("backward (2,0) should precede backward (2,1)")
	}
	if !Less(back20, fwd12.withJ(3)) {
		t.Error("backward from rightmost should precede forward extension")
	}
	if !Less(fwd12, back20) {
		t.Error("forward (1,2) precedes backward (2,0): the edge discovering v2 comes first")
	}
	a := EdgeCode{I: 0, J: 1, LI: 0, LE: 1, LJ: 0}
	b := EdgeCode{I: 0, J: 1, LI: 0, LE: 2, LJ: 0}
	if !Less(a, b) || Less(b, a) {
		t.Error("label tie-break on LE violated")
	}
}

func (e EdgeCode) withJ(j int) EdgeCode { e.J = j; return e }

func TestLessIsTotalOnDistinct(t *testing.T) {
	f := func(i1, j1, e1, i2, j2, e2 uint8) bool {
		a := EdgeCode{I: int(i1 % 4), J: int(j1 % 4), LE: int(e1 % 3)}
		b := EdgeCode{I: int(i2 % 4), J: int(j2 % 4), LE: int(e2 % 3)}
		if a.I == a.J || b.I == b.J {
			return true // self-loop codes never occur
		}
		if a == b {
			return !Less(a, b) && !Less(b, a)
		}
		return Less(a, b) != Less(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// permuteGraph relabels vertex ids by a random permutation, preserving the
// labeled structure.
func permuteGraph(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	n := g.VertexCount()
	perm := rng.Perm(n)
	out := graph.New(g.ID)
	inv := make([]int, n)
	for newID, oldID := range perm {
		inv[oldID] = newID
	}
	labels := make([]int, n)
	for old, l := range g.Labels {
		labels[inv[old]] = l
	}
	for _, l := range labels {
		out.AddVertex(l)
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Adj[u] {
			if u < e.To {
				out.MustAddEdge(inv[u], inv[e.To], e.Label)
			}
		}
	}
	return out
}

func TestMinCodeInvariantUnderPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		m := n - 1 + rng.Intn(n)
		g := graph.RandomConnected(rng, 0, n, m, 3, 2)
		c1 := MinCode(g)
		c2 := MinCode(permuteGraph(rng, g))
		return c1.Equal(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinCodeGraphRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g := graph.RandomConnected(rng, 0, n, n, 3, 2)
		c := MinCode(g)
		back := c.Graph()
		if back.EdgeCount() != g.EdgeCount() || back.VertexCount() != g.VertexCount() {
			return false
		}
		return MinCode(back).Equal(c) && IsCanonical(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinCodeDistinguishesNonIsomorphic(t *testing.T) {
	// Path a-b-c vs triangle-ish relabeling: different structures must get
	// different codes.
	p := graph.New(0)
	p.AddVertex(0)
	p.AddVertex(0)
	p.AddVertex(0)
	p.MustAddEdge(0, 1, 0)
	p.MustAddEdge(1, 2, 0)

	tri := graph.New(0)
	tri.AddVertex(0)
	tri.AddVertex(0)
	tri.AddVertex(0)
	tri.MustAddEdge(0, 1, 0)
	tri.MustAddEdge(1, 2, 0)
	tri.MustAddEdge(2, 0, 0)

	if MinCode(p).Equal(MinCode(tri)) {
		t.Error("path and triangle got the same min code")
	}

	// Same structure, different edge label.
	p2 := p.Clone()
	p2.SetEdgeLabel(1, 2, 1)
	if MinCode(p).Equal(MinCode(p2)) {
		t.Error("different edge labels got the same min code")
	}
}

func TestMinCodeSingleEdgeOrientation(t *testing.T) {
	g := graph.New(0)
	g.AddVertex(5)
	g.AddVertex(3)
	g.MustAddEdge(0, 1, 7)
	c := MinCode(g)
	want := Code{{I: 0, J: 1, LI: 3, LE: 7, LJ: 5}}
	if !c.Equal(want) {
		t.Errorf("MinCode = %v; want smaller vertex label first %v", c, want)
	}
}

func TestMinCodeEmptyAndNilGraph(t *testing.T) {
	g := graph.New(0)
	if MinCode(g) != nil {
		t.Error("MinCode of edgeless graph should be nil")
	}
	g.AddVertex(1)
	if MinCode(g) != nil {
		t.Error("MinCode of single vertex should be nil")
	}
}

func TestRightmostPath(t *testing.T) {
	c := MinCode(figure1Graph())
	// After code (0,1)(1,2)(1,3)(3,0): rightmost vertex is 3, discovered
	// from 1, which descends from 0.
	got := c.RightmostPath()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("RightmostPath = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RightmostPath = %v; want %v", got, want)
		}
	}
	if Code(nil).RightmostPath() != nil {
		t.Error("empty code should have nil rightmost path")
	}
}

func TestCodeAccessors(t *testing.T) {
	c := MinCode(figure1Graph())
	if c.VertexCount() != 4 {
		t.Errorf("VertexCount = %d; want 4", c.VertexCount())
	}
	if l, ok := c.VertexLabel(3); !ok || l != 2 {
		t.Errorf("VertexLabel(3) = %d,%v; want 2,true", l, ok)
	}
	if _, ok := c.VertexLabel(9); ok {
		t.Error("VertexLabel of undiscovered index should report false")
	}
	if !c.HasEdge(0, 3) || !c.HasEdge(3, 0) {
		t.Error("HasEdge should see the backward edge in both orientations")
	}
	if c.HasEdge(0, 2) {
		t.Error("HasEdge reported a nonexistent edge")
	}
	if c.Key() == c[:3].Key() {
		t.Error("different codes must have different keys")
	}
	cl := c.Clone()
	cl[0].LE = 99
	if c[0].LE == 99 {
		t.Error("Clone did not copy")
	}
}

// TestCodeStringMatchesFmt pins String byte for byte to the fmt form
// "(v%d,v%d,%d,%d,%d)" joined by spaces, over random codes with negative
// and many-digit fields.
func TestCodeStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := func() int { return rng.Intn(2001) - 1000 + rng.Intn(2)*rng.Int()/2 }
	for n := 0; n < 500; n++ {
		c := make(Code, rng.Intn(8))
		parts := make([]string, len(c))
		for i := range c {
			c[i] = EdgeCode{I: field(), J: field(), LI: field(), LE: field(), LJ: field()}
			parts[i] = fmt.Sprintf("(v%d,v%d,%d,%d,%d)", c[i].I, c[i].J, c[i].LI, c[i].LE, c[i].LJ)
		}
		if got, want := c.String(), strings.Join(parts, " "); got != want {
			t.Fatalf("String() = %q; want %q", got, want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	c := MinCode(figure1Graph())
	if c.Compare(c) != 0 {
		t.Error("code should equal itself")
	}
	prefix := c[:2]
	if prefix.Compare(c) != -1 || c.Compare(prefix) != 1 {
		t.Error("prefix should order before its extension")
	}
	bigger := c.Clone()
	bigger[3].LE++
	if c.Compare(bigger) != -1 {
		t.Error("label-increased code should order after the minimum")
	}
}

func TestGraphPanicsOnInvalidCode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid code")
		}
	}()
	bad := Code{{I: 0, J: 1, LI: 0, LE: 0, LJ: 0}, {I: 5, J: 6, LI: 0, LE: 0, LJ: 0}}
	bad.Graph()
}
