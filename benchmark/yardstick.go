package main

import "time"

// yardstick measures how fast the machine is while a run measures the
// program. The reference box is a shared VM whose speed drifts by a factor
// of two over an hour, far beyond any regression bound; a run therefore
// times a fixed piece of work beside its measurements and reports every
// time scaled to the speed at which that work takes yardstickRef.
//
// The work is yardWork below: frequent-path mining over a graph database
// drawn from a fixed generator, the same kind of work the program does —
// embedding lists grown edge by edge, grouped in maps, short-lived slices
// for the collector. It imports nothing from the module, so no change to
// the program can move it: a yardstick built on the program's own miners
// would divide out of every metric whatever a change did to the kernels
// they share with the code under test.
type yardstick struct{ samples []time.Duration }

const yardstickRef = 45 * time.Millisecond

// sample runs the work once and records how long it took.
func (y *yardstick) sample() {
	t0 := time.Now()
	if got := yardWork(); got != yardWant {
		panic("benchmark: the yardstick's work changed") // the constant and the code are frozen together
	}
	y.samples = append(y.samples, time.Since(t0))
}

// around runs f between two samples — the one left by the previous call
// and a fresh one — and returns what a time measured inside f is
// multiplied by to express it at the reference speed. Nothing else may
// run while the yardstick does: it would take a core from it.
func (y *yardstick) around(f func()) float64 {
	if len(y.samples) == 0 {
		y.sample() // pays for cold caches
		y.samples = y.samples[:0]
		y.sample()
	}
	before := y.samples[len(y.samples)-1]
	f()
	y.sample()
	after := y.samples[len(y.samples)-1]
	return float64(yardstickRef) / (float64(before+after) / 2)
}

// median is the typical yardstick time of the run, for the record.
func (y *yardstick) median() time.Duration { return percentile(sortedCopy(y.samples), 50) }

// The yardstick's database: yardGraphs graphs of yardVerts vertices, a
// random spanning tree plus yardExtra chords each, labels drawn from small
// alphabets so that many paths are frequent.
const (
	yardGraphs  = 1000
	yardVerts   = 24
	yardExtra   = 8
	yardVLabels = 5
	yardELabels = 3
	yardMinSup  = 100
	yardDepth   = 5 // edges in the longest path mined
)

type yardEdge struct {
	to    uint8
	label uint8
}

type yardGraph struct {
	label []uint8
	adj   [][]yardEdge
}

// yardEmb is one occurrence of a path: its graph and its vertices in order.
type yardEmb struct {
	g    int32
	path []uint8
}

var yardDB = makeYardDB()

func makeYardDB() []yardGraph {
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int { // a 64-bit LCG; the high bits are the good ones
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	db := make([]yardGraph, yardGraphs)
	for i := range db {
		g := yardGraph{label: make([]uint8, yardVerts), adj: make([][]yardEdge, yardVerts)}
		for v := range g.label {
			g.label[v] = uint8(next(yardVLabels))
		}
		link := func(u, v int) {
			for _, e := range g.adj[u] {
				if int(e.to) == v {
					return
				}
			}
			l := uint8(next(yardELabels))
			g.adj[u] = append(g.adj[u], yardEdge{uint8(v), l})
			g.adj[v] = append(g.adj[v], yardEdge{uint8(u), l})
		}
		for v := 1; v < yardVerts; v++ {
			link(v, next(v))
		}
		for k := 0; k < yardExtra; k++ {
			if u, v := next(yardVerts), next(yardVerts); u != v {
				link(u, v)
			}
		}
		db[i] = g
	}
	return db
}

// yardWant is yardWork's result; TestYardstickIsFrozen holds the two together.
const yardWant = 14682559094568846914

// yardWork mines every labelled path of up to yardDepth edges that occurs
// in at least yardMinSup graphs of yardDB, by pattern growth over embedding
// lists, and returns a checksum over the frequent paths and their supports.
func yardWork() uint64 {
	var sum uint64
	for l := 0; l < yardVLabels; l++ {
		var embs []yardEmb
		for gi, g := range yardDB {
			for v, vl := range g.label {
				if int(vl) == l {
					embs = append(embs, yardEmb{int32(gi), []uint8{uint8(v)}})
				}
			}
		}
		sum = yardGrow(embs, 0, sum*31+uint64(l))
	}
	return sum
}

// yardGrow extends every embedding by one edge to a vertex not yet on the
// path, groups the results by (edge label, vertex label), and recurses into
// the groups that are frequent. Embeddings stay ordered by graph, so a
// group's support is its number of graph changes.
func yardGrow(embs []yardEmb, depth int, sum uint64) uint64 {
	if depth == yardDepth {
		return sum
	}
	groups := make(map[uint16][]yardEmb)
	for _, e := range embs {
		g := &yardDB[e.g]
		last := e.path[len(e.path)-1]
	edges:
		for _, ed := range g.adj[last] {
			for _, v := range e.path {
				if v == ed.to {
					continue edges
				}
			}
			path := make([]uint8, len(e.path)+1)
			copy(path, e.path)
			path[len(e.path)] = ed.to
			key := uint16(ed.label)<<8 | uint16(g.label[ed.to])
			groups[key] = append(groups[key], yardEmb{e.g, path})
		}
	}
	for el := 0; el < yardELabels; el++ { // fixed order: the checksum depends on it
		for vl := 0; vl < yardVLabels; vl++ {
			key := uint16(el)<<8 | uint16(vl)
			group := groups[key]
			support, prev := 0, int32(-1)
			for _, e := range group {
				if e.g != prev {
					support, prev = support+1, e.g
				}
			}
			if support >= yardMinSup {
				sum = yardGrow(group, depth+1, (sum*31+uint64(key))*31+uint64(support))
			}
		}
	}
	return sum
}
