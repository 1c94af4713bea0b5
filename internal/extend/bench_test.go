package extend

import (
	"math/rand"
	"testing"

	"partminer/internal/dfscode"
	"partminer/internal/graph"
)

var sinkEmbedding Embedding

// TestExtendAllocationBounds pins the shared-prefix representation's cost
// model: growing an embedding is O(1) allocation no matter how long the
// pattern is — exactly one node standalone, amortized to slab noise under
// an arena — and the hot-path queries on a warm Extender allocate nothing.
func TestExtendAllocationBounds(t *testing.T) {
	// Standalone Extend: one node allocation regardless of chain depth.
	deep := Seed(0, 0, 1)
	for v := 2; v < 64; v++ {
		deep = deep.Extend(v)
	}
	if avg := testing.AllocsPerRun(200, func() { sinkEmbedding = deep.Extend(64) }); avg != 1 {
		t.Errorf("Embedding.Extend allocs/op = %v; want exactly 1 (one node, no prefix copy)", avg)
	}

	// Arena-backed Extend: one slab per arenaChunk nodes, so the average
	// must sit far below one allocation per extension.
	x := NewExtender()
	m := x.Seed(0, 0, 1)
	if avg := testing.AllocsPerRun(4*arenaChunk, func() { m = x.extend(m, 2) }); avg > 2.0/arenaChunk {
		t.Errorf("arena Extend allocs/op = %v; want <= %v (slab amortized)", avg, 2.0/arenaChunk)
	}

	// Materializing and marking an embedding, as Extensions does per
	// embedding, reuse the Extender's scratch once warm.
	markUsed := func() {
		x.verts = deep.AppendVerts(x.verts[:0])
		x.mark(x.verts, 80)
	}
	markUsed()
	if avg := testing.AllocsPerRun(200, markUsed); avg != 0 {
		t.Errorf("materialize+mark allocs/op = %v; want 0 on a warm scratch buffer and bitmap", avg)
	}
}

// TestProjectionSupportAllocationFree pins the single-pass Support on the
// TID-grouped invariant: no bitmap, no map, no allocation.
func TestProjectionSupportAllocationFree(t *testing.T) {
	x := NewExtender()
	var p Projection
	for tid := 0; tid < 50; tid++ {
		for j := 0; j < 4; j++ {
			p = append(p, x.Seed(tid, j, j+1))
		}
	}
	got := 0
	if avg := testing.AllocsPerRun(200, func() { got = p.Support() }); avg != 0 {
		t.Errorf("Projection.Support allocs/op = %v; want 0", avg)
	}
	if got != 50 {
		t.Errorf("Support = %d; want 50", got)
	}
}

func benchSource(b *testing.B) Source {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	return DB(graph.RandomDatabase(rng, 60, 10, 16, 3, 2))
}

func BenchmarkInitial(b *testing.B) {
	src := benchSource(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := NewExtender()
		if len(x.Initial(src, 2)) == 0 {
			b.Fatal("no frequent edges")
		}
	}
}

func BenchmarkExtensions(b *testing.B) {
	src := benchSource(b)
	x := NewExtender()
	cands := x.Initial(src, 2)
	if len(cands) == 0 {
		b.Fatal("no frequent edges")
	}
	c := cands[0]
	code := dfscode.Code{c.Edge}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Extensions(src, code, c.Proj, nil)
	}
}
