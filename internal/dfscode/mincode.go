package dfscode

import (
	"sync"

	"partminer/internal/exec"
	"partminer/internal/graph"
)

// MinCode computes the minimum DFS code of a connected graph with at least
// one edge. It returns nil for graphs with no edges (a single vertex has no
// edge-sequence encoding; miners treat single vertices separately).
//
// The algorithm grows the code one edge at a time, maintaining every
// embedding of the current prefix into g. At each step it considers all
// gSpan rightmost-path extensions across all embeddings, keeps the
// lexicographically smallest edge code, and discards embeddings that do not
// realize it. This is the standard canonical-form construction used inside
// gSpan's is-minimal check.
func MinCode(g *graph.Graph) Code {
	code, _ := minCode(g, nil, nil)
	return code
}

// MinCodeTick is MinCode with cooperative cancellation; an aborted
// construction returns the (meaningless) partial code, so callers must
// consult the cancellation source before using the result.
func MinCodeTick(g *graph.Graph, tick *exec.Ticker) Code {
	code, _ := minCode(g, nil, tick)
	return code
}

// IsCanonical reports whether c is the minimum DFS code of the graph it
// encodes. Miners use it to prune duplicate pattern enumerations.
func IsCanonical(c Code) bool {
	return IsCanonicalTick(c, nil)
}

// IsCanonicalTick is IsCanonical with cooperative cancellation: the
// embedding scans check tick (the construction is factorial in the
// pattern's automorphisms, so a single check can run for a long time on
// symmetric inputs). An aborted check returns false — callers treat the
// candidate as a duplicate and must consult the cancellation source
// before trusting the overall result.
func IsCanonicalTick(c Code, tick *exec.Ticker) bool {
	if len(c) == 0 {
		return true
	}
	_, cmp := minCode(c.Graph(), c, tick)
	return cmp == 0
}

// minScratch holds minCode's working buffers. The embeddings of the
// current prefix are stored flat, w graph vertices per embedding
// (embedding i maps DFS index j to cur[i*w+j]); the next level's are
// written into spare and the two swap. The buffers are pooled, so a warm
// construction allocates only the code it returns.
type minScratch struct {
	cur, spare []int
	rmpath     []int
	// code backs the partial code of an IsCanonical check, which is
	// compared and dropped, never returned to a caller.
	code Code
}

var minScratchPool = sync.Pool{New: func() any { return new(minScratch) }}

// maxPooledInts caps the buffers a scratch keeps across calls, so one
// pathological graph does not pin its embedding lists in the pool.
const maxPooledInts = 1 << 20

// maps reports whether the embedding row m uses graph vertex v.
func maps(m []int, v int) bool {
	for _, u := range m {
		if u == v {
			return true
		}
	}
	return false
}

// minCode builds the minimum DFS code of g. If abortAt is non-nil, the
// construction compares each chosen edge against abortAt and stops early as
// soon as the codes diverge; the second return value is the comparison
// result of the (possibly partial) minimum code against abortAt (-1 smaller,
// 0 equal, +1 larger), and the code returned is scratch the caller must not
// keep. A non-nil tick aborts the embedding scans on cancellation,
// reporting +1 (not canonical) — see IsCanonicalTick.
func minCode(g *graph.Graph, abortAt Code, tick *exec.Ticker) (Code, int) {
	ne := g.EdgeCount()
	if ne == 0 {
		if len(abortAt) == 0 {
			return nil, 0
		}
		return nil, -1
	}
	s := minScratchPool.Get().(*minScratch)
	code, cmp := s.minCode(g, abortAt, tick)
	if cap(s.cur)+cap(s.spare) <= maxPooledInts {
		minScratchPool.Put(s)
	}
	return code, cmp
}

func (s *minScratch) minCode(g *graph.Graph, abortAt Code, tick *exec.Ticker) (Code, int) {
	ne := g.EdgeCount()

	// Seed: the minimal 1-edge code over all edges and orientations.
	var first EdgeCode
	haveFirst := false
	for u := 0; u < g.VertexCount(); u++ {
		for _, e := range g.Adj[u] {
			cand := EdgeCode{I: 0, J: 1, LI: g.Labels[u], LE: e.Label, LJ: g.Labels[e.To]}
			if !haveFirst || Less(cand, first) {
				first = cand
				haveFirst = true
			}
		}
	}
	var code Code
	if abortAt != nil {
		code = append(s.code[:0], first)
	} else {
		code = make(Code, 1, ne)
		code[0] = first
	}
	w := 2 // vertices per embedding
	cur, spare := s.cur[:0], s.spare[:0]
	for u := 0; u < g.VertexCount(); u++ {
		if g.Labels[u] != first.LI {
			continue
		}
		for _, e := range g.Adj[u] {
			if e.Label == first.LE && g.Labels[e.To] == first.LJ {
				cur = append(cur, u, e.To)
			}
		}
	}
	rmpath := append(s.rmpath[:0], 0, 1)
	s.cur, s.rmpath = cur, rmpath
	if abortAt != nil {
		if cmp := cmpEdge(first, abortAt[0]); cmp != 0 {
			return code, cmp
		}
	}

	for len(code) < ne {
		t := len(rmpath) - 1
		rightmost := rmpath[t]

		// Backward extensions from the rightmost vertex to rightmost-path
		// vertices, smallest target DFS index first. Any backward edge
		// sorts before every forward edge, so the first realizable
		// backward candidate wins outright.
		var next EdgeCode
		nextW := w
		haveNext := false
		for pi := 0; pi < len(rmpath)-2 && !haveNext; pi++ {
			target := rmpath[pi]
			if code.HasEdge(rightmost, target) {
				continue
			}
			// Among embeddings, the edge label may vary; take the minimum.
			bestLE := 0
			haveLE := false
			for i := 0; i < len(cur); i += w {
				if tick.Hit() {
					return code, 1
				}
				le, ok := g.EdgeLabel(cur[i+rightmost], cur[i+target])
				if !ok {
					continue
				}
				if !haveLE || le < bestLE {
					bestLE = le
					haveLE = true
				}
			}
			if !haveLE {
				continue
			}
			liLabel, _ := code.VertexLabel(rightmost)
			ljLabel, _ := code.VertexLabel(target)
			next = EdgeCode{I: rightmost, J: target, LI: liLabel, LE: bestLE, LJ: ljLabel}
			spare = spare[:0]
			for i := 0; i < len(cur); i += w {
				if tick.Hit() {
					return code, 1
				}
				m := cur[i : i+w]
				if le, ok := g.EdgeLabel(m[rightmost], m[target]); ok && le == bestLE {
					spare = append(spare, m...)
				}
			}
			haveNext = true
		}

		if !haveNext {
			// Forward extensions from rightmost-path vertices, trying the
			// rightmost vertex first (larger source index sorts smaller).
			for pi := len(rmpath) - 1; pi >= 0 && !haveNext; pi-- {
				src := rmpath[pi]
				bestLE, bestLJ := 0, 0
				haveF := false
				for i := 0; i < len(cur); i += w {
					if tick.Hit() {
						return code, 1
					}
					m := cur[i : i+w]
					for _, e := range g.Adj[m[src]] {
						if maps(m, e.To) {
							continue
						}
						lj := g.Labels[e.To]
						if !haveF || e.Label < bestLE || (e.Label == bestLE && lj < bestLJ) {
							bestLE, bestLJ = e.Label, lj
							haveF = true
						}
					}
				}
				if !haveF {
					continue
				}
				liLabel, _ := code.VertexLabel(src)
				newIdx := w
				next = EdgeCode{I: src, J: newIdx, LI: liLabel, LE: bestLE, LJ: bestLJ}
				spare = spare[:0]
				for i := 0; i < len(cur); i += w {
					if tick.Hit() {
						return code, 1
					}
					m := cur[i : i+w]
					for _, e := range g.Adj[m[src]] {
						if maps(m, e.To) || e.Label != bestLE || g.Labels[e.To] != bestLJ {
							continue
						}
						spare = append(append(spare, m...), e.To)
					}
				}
				nextW = w + 1
				// The embedding set changes length on forward extensions,
				// so truncate the rightmost path to the source and append
				// the new vertex.
				rmpath = append(rmpath[:pi+1], newIdx)
				haveNext = true
			}
		}

		if !haveNext {
			// Unreachable for connected graphs: a connected graph always
			// admits a forward extension until all edges are consumed.
			panic("dfscode: no extension found; graph is disconnected")
		}
		code = append(code, next)
		cur, spare, w = spare, cur, nextW
		s.cur, s.spare, s.rmpath = cur, spare, rmpath
		if abortAt != nil {
			s.code = code
		}
		if abortAt != nil {
			k := len(code) - 1
			if k >= len(abortAt) {
				return code, 1
			}
			if cmp := cmpEdge(next, abortAt[k]); cmp != 0 {
				return code, cmp
			}
		}
	}
	if abortAt != nil && len(code) < len(abortAt) {
		return code, -1
	}
	return code, 0
}

func cmpEdge(a, b EdgeCode) int {
	if a == b {
		return 0
	}
	if Less(a, b) {
		return -1
	}
	return 1
}
