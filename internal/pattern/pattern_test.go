package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/isomorph"
)

func edgeGraph(l1, le, l2 int) *graph.Graph {
	g := graph.New(0)
	g.AddVertex(l1)
	g.AddVertex(l2)
	g.MustAddEdge(0, 1, le)
	return g
}

func TestSetAddAndEqual(t *testing.T) {
	s := make(Set)
	p := &Pattern{Code: dfscode.MinCode(edgeGraph(0, 1, 2)), Support: 3}
	s.Add(p)
	s.Add(&Pattern{Code: p.Code.Clone(), Support: 2}) // lower support ignored
	if got := s[p.Code.Key()].Support; got != 3 {
		t.Errorf("support after lower-support re-add = %d; want 3", got)
	}
	s.Add(&Pattern{Code: p.Code.Clone(), Support: 5})
	if got := s[p.Code.Key()].Support; got != 5 {
		t.Errorf("support after higher-support re-add = %d; want 5", got)
	}

	o := make(Set)
	o.Add(&Pattern{Code: p.Code.Clone(), Support: 5})
	if !s.Equal(o) || !o.Equal(s) {
		t.Error("sets with identical content should be equal")
	}
	o.Add(&Pattern{Code: dfscode.MinCode(edgeGraph(1, 1, 1)), Support: 5})
	if s.Equal(o) {
		t.Error("sets of different cardinality should differ")
	}
	if d := s.Diff(o); len(d) != 1 {
		t.Errorf("Diff = %v; want one line", d)
	}
}

func TestSetBySizeAndFilter(t *testing.T) {
	s := make(Set)
	g2 := edgeGraph(0, 0, 0)
	g2.AddVertex(0)
	g2.MustAddEdge(1, 2, 0)
	s.Add(&Pattern{Code: dfscode.MinCode(edgeGraph(0, 0, 0)), Support: 4})
	s.Add(&Pattern{Code: dfscode.MinCode(g2), Support: 2})
	by := s.BySize()
	if len(by) != 3 || len(by[1]) != 1 || len(by[2]) != 1 {
		t.Fatalf("BySize structure wrong: %v", by)
	}
	f := s.Filter(3)
	if len(f) != 1 {
		t.Errorf("Filter(3) kept %d; want 1", len(f))
	}
}

func TestTIDSetOps(t *testing.T) {
	a := NewTIDSet(10)
	a.Add(1)
	a.Add(64)
	a.Add(200) // forces growth
	if !a.Contains(1) || !a.Contains(64) || !a.Contains(200) || a.Contains(2) {
		t.Error("membership wrong")
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d; want 3", a.Count())
	}
	b := NewTIDSet(10)
	b.Add(64)
	b.Add(3)
	inter := a.Intersect(b)
	if inter.Count() != 1 || !inter.Contains(64) {
		t.Errorf("Intersect = %v; want {64}", inter)
	}
	uni := a.Union(b)
	if uni.Count() != 4 {
		t.Errorf("Union count = %d; want 4", uni.Count())
	}
	sl := a.Slice()
	want := []int{1, 64, 200}
	for i := range want {
		if sl[i] != want[i] {
			t.Fatalf("Slice = %v; want %v", sl, want)
		}
	}
	c := a.Clone()
	c.Add(5)
	if a.Contains(5) {
		t.Error("Clone aliases original")
	}
	if s := b.String(); s != "{3,64}" {
		t.Errorf("String = %q; want {3,64}", s)
	}
}

func TestFullTIDSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		want := NewTIDSet(n)
		for i := 0; i < n; i++ {
			want.Add(i)
		}
		if got := FullTIDSet(n); !got.Equal(want) || got.Count() != n {
			t.Errorf("FullTIDSet(%d) = %v", n, got)
		}
	}
}

func TestTIDSetProperties(t *testing.T) {
	f := func(xs []uint16) bool {
		s := NewTIDSet(0)
		ref := map[int]bool{}
		for _, x := range xs {
			s.Add(int(x % 500))
			ref[int(x%500)] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, id := range s.Slice() {
			if !ref[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceOnKnownDatabase(t *testing.T) {
	// Two identical triangles and one path; minSup 2.
	mk := func() *graph.Graph {
		g := graph.New(0)
		g.AddVertex(0)
		g.AddVertex(0)
		g.AddVertex(1)
		g.MustAddEdge(0, 1, 0)
		g.MustAddEdge(1, 2, 0)
		g.MustAddEdge(2, 0, 0)
		return g
	}
	p := graph.New(2)
	p.AddVertex(0)
	p.AddVertex(0)
	p.MustAddEdge(0, 1, 0)
	db := graph.Database{mk(), mk(), p}

	got := BruteForce(db, 2, 3)
	// Frequent with support >= 2: the 0-0 edge (sup 3); the 0-1 edge
	// (sup 2, appears twice in triangles via two vertices); 2-edge paths
	// 0-0-1 and 0-1-0 (sup 2); the triangle (sup 2); plus the 2-edge path
	// with both labels... enumerate: triangle subgraphs of sizes 1..3.
	for key, pat := range got {
		if isomorph.Support(db, pat.Code.Graph()) != pat.Support {
			t.Errorf("pattern %s: recorded support %d != recount", key, pat.Support)
		}
		if pat.Support < 2 {
			t.Errorf("pattern %s: support below threshold", key)
		}
		if pat.TIDs.Count() != pat.Support {
			t.Errorf("pattern %s: TID count %d != support %d", key, pat.TIDs.Count(), pat.Support)
		}
	}
	// The full triangle must be found with support 2.
	triCode := dfscode.MinCode(mk())
	if tp, ok := got[triCode.Key()]; !ok || tp.Support != 2 {
		t.Errorf("triangle missing or wrong support: %v", tp)
	}
	// The single 0-0 edge has support 3.
	e := edgeGraph(0, 0, 0)
	if ep, ok := got[dfscode.MinCode(e).Key()]; !ok || ep.Support != 3 {
		t.Errorf("0-0 edge missing or wrong support: %v", ep)
	}
}

func TestBruteForceRespectsMaxEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := graph.RandomDatabase(rng, 4, 6, 8, 2, 2)
	got := BruteForce(db, 1, 2)
	for _, p := range got {
		if p.Size() > 2 {
			t.Errorf("pattern %s exceeds maxEdges", p)
		}
	}
	if len(got) == 0 {
		t.Error("expected some patterns")
	}
}

func TestBruteForceSupportsMatchIsomorph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := graph.RandomDatabase(rng, 5, 5, 6, 2, 2)
		got := BruteForce(db, 2, 3)
		for _, p := range got {
			if isomorph.Support(db, p.Code.Graph()) != p.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
