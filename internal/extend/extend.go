// Package extend implements the rightmost-path pattern-growth machinery
// shared by the gSpan and Gaston unit miners: projections (embedding lists
// of a DFS code into database graphs) and the enumeration of candidate
// one-edge extensions in canonical order.
//
// Embeddings are shared-prefix (persistent) lists: growing a pattern by
// one edge records only the newly mapped vertex plus a pointer to the
// parent embedding, so an extension costs O(1) space instead of copying
// the whole vertex vector. The few operations that need the full vector
// (rightmost-path lookup, used-vertex checks) materialize it on demand
// into a reusable scratch buffer owned by an Extender.
package extend

import (
	"sort"

	"partminer/internal/dfscode"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// Source abstracts where database graphs come from so that the same
// pattern-growth machinery serves in-memory miners (gSpan, Gaston) and the
// disk-based ADIMINE baseline, whose graphs are decoded from block storage
// on demand.
type Source interface {
	// Len returns the number of transactions.
	Len() int
	// Graph returns transaction tid. Implementations may return a cached
	// or freshly decoded graph; callers must not mutate it.
	Graph(tid int) *graph.Graph
}

type dbSource struct{ db graph.Database }

func (s dbSource) Len() int                   { return len(s.db) }
func (s dbSource) Graph(tid int) *graph.Graph { return s.db[tid] }

// DB adapts an in-memory database to a Source.
func DB(db graph.Database) Source { return dbSource{db} }

// embNode is one link of a shared-prefix embedding: the graph vertex
// playing DFS index idx, chained to the node for idx-1. Nodes are
// immutable once created, so arbitrarily many child embeddings may share
// one prefix chain.
type embNode struct {
	vert int
	idx  int // DFS index of vert (== depth-1)
	prev *embNode
}

// Embedding records one occurrence of a pattern in a database graph as a
// shared-prefix list: the tail node holds the graph vertex playing the
// highest DFS index, its predecessor the next lower index, and so on down
// to the root. The set of graph edges covered is implied by the pattern's
// code, so embeddings stay cheap: extending by one vertex allocates a
// single node, never a copy of the prefix.
type Embedding struct {
	TID  int
	tail *embNode
}

// Seed returns a fresh 2-vertex embedding mapping DFS indices 0 and 1 to
// graph vertices u and v. Both nodes live in one allocation.
func Seed(tid, u, v int) Embedding {
	n := &[2]embNode{{vert: u, idx: 0}, {vert: v, idx: 1}}
	n[1].prev = &n[0]
	return Embedding{TID: tid, tail: &n[1]}
}

// Extend returns the embedding grown by mapping the next DFS index to
// graph vertex v. The receiver is shared, not copied. Miners should
// prefer Extender-managed enumeration, which allocates nodes from an
// arena; Extend is the standalone equivalent.
func (m Embedding) Extend(v int) Embedding {
	return Embedding{TID: m.TID, tail: &embNode{vert: v, idx: m.tail.idx + 1, prev: m.tail}}
}

// Len returns the number of mapped vertices.
func (m Embedding) Len() int {
	if m.tail == nil {
		return 0
	}
	return m.tail.idx + 1
}

// Vertex returns the graph vertex playing DFS index i. It walks the
// prefix chain (O(Len-i)); loops over all indices should materialize with
// AppendVerts instead.
func (m Embedding) Vertex(i int) int {
	for nd := m.tail; nd != nil; nd = nd.prev {
		if nd.idx == i {
			return nd.vert
		}
	}
	panic("extend: Vertex index out of range")
}

// Uses reports whether graph vertex v is already mapped by the embedding.
func (m Embedding) Uses(v int) bool {
	for nd := m.tail; nd != nil; nd = nd.prev {
		if nd.vert == v {
			return true
		}
	}
	return false
}

// AppendVerts materializes the full DFS-index→vertex vector into buf
// (callers pass buf[:0] to reuse its space) and returns it: out[i] is the
// graph vertex playing DFS index i.
func (m Embedding) AppendVerts(buf []int) []int {
	n := m.Len()
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
	}
	for nd := m.tail; nd != nil; nd = nd.prev {
		buf[nd.idx] = nd.vert
	}
	return buf
}

// Verts returns a freshly allocated DFS-index→vertex vector; tests and
// diagnostics use it, hot paths use AppendVerts.
func (m Embedding) Verts() []int { return m.AppendVerts(nil) }

// Projection is the list of all embeddings of one pattern across the
// database.
//
// Invariant: embeddings of the same transaction are contiguous and TIDs
// are nondecreasing. Initial and Extensions build projections by scanning
// transactions (or a parent projection) in TID order, so the invariant
// holds by construction; Support relies on it.
type Projection []Embedding

// Support returns the number of distinct transactions in the projection
// in a single allocation-free pass, counting TID transitions under the
// grouped-TID invariant documented on Projection.
func (p Projection) Support() int {
	n, last := 0, -1
	for i := range p {
		if tid := p[i].TID; tid != last {
			n++
			last = tid
		}
	}
	return n
}

// TIDs returns the supporting transaction ids as a bitset sized for a
// database of n graphs. Emit paths that need both the bitset and the
// support should call this once and derive the support via Count.
func (p Projection) TIDs(n int) *pattern.TIDSet {
	t := pattern.NewTIDSet(n)
	for i := range p {
		t.Add(p[i].TID)
	}
	return t
}

// Candidate couples a one-edge extension with the projection of the
// extended pattern.
type Candidate struct {
	Edge dfscode.EdgeCode
	Proj Projection
}

// arenaChunk is how many embedding nodes one arena slab holds. Nodes are
// 24 bytes, so a slab is ~12KiB — large enough to amortize allocation to
// noise, small enough not to hurt short runs.
const arenaChunk = 512

// nodeArena hands out embedding nodes from append-only slabs. Node
// pointers stay valid for the arena's lifetime (slabs are never resized);
// slabs are garbage-collected together once no embedding references them.
type nodeArena struct {
	cur []embNode
}

func (a *nodeArena) new(vert, idx int, prev *embNode) *embNode {
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]embNode, 0, arenaChunk)
	}
	a.cur = a.cur[:len(a.cur)+1]
	nd := &a.cur[len(a.cur)-1]
	nd.vert, nd.idx, nd.prev = vert, idx, prev
	return nd
}

// Extender owns the per-run allocation state of pattern growth: the node
// arena embeddings are built from and the scratch buffers Extensions
// materializes into. One mining run owns one Extender; it is not safe for
// concurrent use (parallel unit miners each create their own).
type Extender struct {
	arena nodeArena

	// verts is the materialized vertex vector of the embedding currently
	// being extended.
	verts []int
	// stamp/epoch implement the per-embedding visited bitmap: graph
	// vertex v is used by the current embedding iff stamp[v] == epoch.
	// Epoch stamping makes clearing O(1) per embedding.
	stamp []uint64
	epoch uint64

	// alphabet is the run's frequent label-triple alphabet, recorded by
	// Initial: the triples that reached their minSup. A pattern
	// containing any other triple is infrequent at that threshold, so
	// Extensions drops such extensions unseen. nil (no seeding call yet)
	// filters nothing.
	alphabet map[labelTriple]struct{}
}

// labelTriple is the label triple of an undirected edge, endpoint labels
// ordered li <= lj.
type labelTriple struct{ li, le, lj int }

func makeTriple(la, le, lb int) labelTriple {
	if la > lb {
		la, lb = lb, la
	}
	return labelTriple{la, le, lb}
}

// tripleOf returns the label triple of a canonical 1-edge code (LI <= LJ).
func tripleOf(e dfscode.EdgeCode) labelTriple { return labelTriple{e.LI, e.LE, e.LJ} }

// inAlphabet reports whether an extension by an edge with this label
// triple can be frequent in the run.
func (x *Extender) inAlphabet(la, le, lb int) bool {
	if x.alphabet == nil {
		return true
	}
	_, ok := x.alphabet[makeTriple(la, le, lb)]
	return ok
}

// NewExtender returns an empty Extender.
func NewExtender() *Extender { return &Extender{} }

// seed is Seed backed by the arena.
func (x *Extender) seed(tid, u, v int) Embedding {
	root := x.arena.new(u, 0, nil)
	return Embedding{TID: tid, tail: x.arena.new(v, 1, root)}
}

// Seed returns a fresh 2-vertex embedding allocated from the Extender's
// arena; miners that build seed projections by hand (ADIMINE) use it so
// their embeddings share the run's slabs.
func (x *Extender) Seed(tid, u, v int) Embedding { return x.seed(tid, u, v) }

// extend grows m by one vertex, allocating the node from the arena.
func (x *Extender) extend(m Embedding, v int) Embedding {
	return Embedding{TID: m.TID, tail: x.arena.new(v, m.tail.idx+1, m.tail)}
}

// mark registers verts as the current embedding's used set (the visited
// bitmap consulted by used).
func (x *Extender) mark(verts []int, n int) {
	if len(x.stamp) < n {
		x.stamp = append(x.stamp, make([]uint64, n-len(x.stamp))...)
	}
	x.epoch++
	for _, v := range verts {
		x.stamp[v] = x.epoch
	}
}

// used reports whether graph vertex v is used by the embedding last
// passed to mark.
func (x *Extender) used(v int) bool { return x.stamp[v] == x.epoch }

// Initial returns the frequent 1-edge patterns of src (support >= minSup)
// as candidates whose Edge is the canonical 1-edge code (0,1,li,le,lj)
// with li <= lj, sorted ascending. Projections include both orientations
// of symmetric edges, mirroring how MinCode seeds its embeddings. The
// frequent triples become the Extender's alphabet: later Extensions calls
// must grow over the same source at the same threshold.
//
// Supports are counted in a first scan; only the frequent triples get
// embeddings, allocated at their exact size, in a second.
func (x *Extender) Initial(src Source, minSup int) []Candidate {
	// last is one past the last transaction counted into sup, so the zero
	// tally has counted none.
	type tally struct{ sup, occ, last int }
	tallies := make(map[labelTriple]tally)
	forEachSeedEdge(src, func(tid, _, _ int, t labelTriple) {
		c := tallies[t]
		if c.last != tid+1 {
			c.sup++
			c.last = tid + 1
		}
		c.occ++
		tallies[t] = c
	})
	var out []Candidate
	for t, c := range tallies {
		if c.sup < minSup {
			continue
		}
		n := c.occ
		if t.li == t.lj {
			n *= 2
		}
		out = append(out, Candidate{
			Edge: dfscode.EdgeCode{I: 0, J: 1, LI: t.li, LE: t.le, LJ: t.lj},
			Proj: make(Projection, 0, n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return dfscode.Less(out[i].Edge, out[j].Edge) })
	slot := make(map[labelTriple]int, len(out))
	for i, c := range out {
		slot[tripleOf(c.Edge)] = i
	}
	forEachSeedEdge(src, func(tid, u, v int, t labelTriple) {
		i, ok := slot[t]
		if !ok {
			return
		}
		out[i].Proj = append(out[i].Proj, x.seed(tid, u, v))
		if t.li == t.lj {
			out[i].Proj = append(out[i].Proj, x.seed(tid, v, u))
		}
	})
	x.setAlphabet(out)
	return out
}

// forEachSeedEdge visits every undirected edge of src once, in transaction
// order, oriented from its smaller-label endpoint (from the smaller vertex
// id when the labels are equal).
func forEachSeedEdge(src Source, fn func(tid, u, v int, t labelTriple)) {
	for tid := 0; tid < src.Len(); tid++ {
		g := src.Graph(tid)
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				lu, lv := g.Labels[u], g.Labels[e.To]
				if lu > lv || (lu == lv && u > e.To) {
					continue
				}
				fn(tid, u, e.To, labelTriple{lu, e.Label, lv})
			}
		}
	}
}

// setAlphabet records the triples of the frequent 1-edge candidates as
// the run's alphabet.
func (x *Extender) setAlphabet(frequent []Candidate) {
	x.alphabet = make(map[labelTriple]struct{}, len(frequent))
	for _, c := range frequent {
		x.alphabet[tripleOf(c.Edge)] = struct{}{}
	}
}

// Initial is the standalone form of Extender.Initial for callers without
// a per-run Extender (tests, one-shot tools).
func Initial(src Source, minSup int) []Candidate {
	return NewExtender().Initial(src, minSup)
}

// Extensions enumerates the rightmost-path one-edge extensions of code
// over the projection, grouped by extension edge code and sorted in
// canonical (gSpan) order.
//
// Backward extensions go from the rightmost vertex to a rightmost-path
// vertex (skipping the parent tree edge and edges already in the code).
// Forward extensions grow a new vertex from any rightmost-path vertex.
//
// Each embedding is materialized once into the Extender's scratch buffer
// and its used-vertex set is stamped into the visited bitmap, so the
// per-neighbor work is O(1); forward extensions allocate a single arena
// node each.
//
// Once Initial has run on the Extender, an extension whose label triple
// is outside the alphabet it recorded is skipped before it is bucketed:
// the grown pattern contains an infrequent edge, so no miner growing at
// that threshold would keep it.
//
// A non-nil tick aborts the embedding scan on cancellation (projections
// can run to millions of embeddings on dense inputs) and returns the
// partial enumeration; callers must consult the cancellation source
// before trusting the result.
func (x *Extender) Extensions(src Source, code dfscode.Code, proj Projection, tick *exec.Ticker) []Candidate {
	rmpath := code.RightmostPath()
	rightmost := rmpath[len(rmpath)-1]
	newIdx := code.VertexCount()

	buckets := make(map[dfscode.EdgeCode]Projection)

	rmLabel, _ := code.VertexLabel(rightmost)
	for _, m := range proj {
		if tick.Hit() {
			break
		}
		g := src.Graph(m.TID)
		x.verts = m.AppendVerts(x.verts[:0])
		verts := x.verts
		x.mark(verts, g.VertexCount())
		rv := verts[rightmost]

		// Backward: rightmost vertex -> rmpath vertex, excluding the
		// parent (rmpath[len-2]) whose tree edge is already in code.
		for pi := 0; pi < len(rmpath)-2; pi++ {
			target := rmpath[pi]
			if code.HasEdge(rightmost, target) {
				continue
			}
			le, ok := g.EdgeLabel(rv, verts[target])
			if !ok {
				continue
			}
			tl, _ := code.VertexLabel(target)
			if !x.inAlphabet(rmLabel, le, tl) {
				continue
			}
			ec := dfscode.EdgeCode{I: rightmost, J: target, LI: rmLabel, LE: le, LJ: tl}
			buckets[ec] = append(buckets[ec], m)
		}

		// Forward from every rightmost-path vertex.
		for pi := len(rmpath) - 1; pi >= 0; pi-- {
			srcIdx := rmpath[pi]
			sl, _ := code.VertexLabel(srcIdx)
			sv := verts[srcIdx]
			for _, e := range g.Adj[sv] {
				if x.used(e.To) || !x.inAlphabet(sl, e.Label, g.Labels[e.To]) {
					continue
				}
				ec := dfscode.EdgeCode{I: srcIdx, J: newIdx, LI: sl, LE: e.Label, LJ: g.Labels[e.To]}
				buckets[ec] = append(buckets[ec], x.extend(m, e.To))
			}
		}
	}

	out := make([]Candidate, 0, len(buckets))
	for ec, pr := range buckets {
		out = append(out, Candidate{Edge: ec, Proj: pr})
	}
	sort.Slice(out, func(i, j int) bool { return dfscode.Less(out[i].Edge, out[j].Edge) })
	return out
}

// Extensions is the standalone form of Extender.Extensions for callers
// without a per-run Extender (tests, one-shot tools).
func Extensions(src Source, code dfscode.Code, proj Projection, tick *exec.Ticker) []Candidate {
	return NewExtender().Extensions(src, code, proj, tick)
}
