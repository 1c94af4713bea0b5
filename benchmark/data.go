package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"partminer/internal/datagen"
	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/isomorph"
	"partminer/internal/pattern"
	"partminer/internal/query"
	"partminer/internal/server"
)

// scale fixes the size of everything a run generates. The full scale is
// the paper's D1kT20N20L200I5 at 4 % support; the smoke scale exists so
// the tests reach every workload's code path in about a second.
type scale struct {
	gen       datagen.Config // Seed is filled per run
	minsup    float64        // fraction, as partserved's -minsup takes it
	adhocPool int            // distinct ad-hoc queries; 4x the 1024-entry result cache
	batchPool int            // distinct 16-query batches
	readRate  float64        // open-loop reads per second, all reader connections together
	updRate   float64        // open-loop updates per second
	fullEvery int            // every n-th update is an add_graph
	tailInc   int            // serve_read's unloaded in-place folds
	tailFull  int            // serve_read's unloaded add_graph folds
}

var fullScale = scale{
	gen:       datagen.Config{D: 1000, T: 20, N: 20, L: 200, I: 5},
	minsup:    0.04,
	adhocPool: 4096,
	batchPool: 256,
	readRate:  500,
	updRate:   0.75,
	fullEvery: 3,
	tailInc:   20,
	tailFull:  5,
}

var smokeScale = scale{
	gen:       datagen.Config{D: 60, T: 10, N: 5, L: 20, I: 3},
	minsup:    0.1,
	adhocPool: 64,
	batchPool: 8,
	readRate:  200,
	updRate:   10,
	fullEvery: 3,
	tailInc:   2,
	tailFull:  1,
}

// The fixed mining configuration of every workload: K=2, default
// partition3, every other option at its default.
const unitsK = 2

// absSupport mirrors partserved's conversion of -minsup to an absolute
// count, so the oracle and the server mine at the same threshold.
func absSupport(n int, frac float64) int {
	if s := int(frac * float64(n)); s >= 1 {
		return s
	}
	return 1
}

func (s scale) database(dbSeed int64) graph.Database {
	cfg := s.gen
	cfg.Seed = dbSeed
	return datagen.Generate(cfg)
}

// dbText renders db in the text format partserved loads.
func dbText(db graph.Database) []byte {
	var buf bytes.Buffer
	if err := graph.WriteDatabase(&buf, db); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// queryText renders one query graph for a /v1/contains body.
func queryText(g *graph.Graph) string { return graph.Format(g) }

// queries is the read side of a run's inputs: the planned pool (every
// mined pattern as a query graph), the ad-hoc pool, and the batches.
type queries struct {
	patterns []*pattern.Pattern // sorted by key; planned query i is patterns[i]
	graphs   []*graph.Graph     // planned graphs first, then ad-hoc graphs
	planned  int                // len(patterns)
	batches  [][]int            // each 16 query ids: 12 planned + 4 ad-hoc
}

func (q *queries) adhoc() int { return len(q.graphs) - q.planned }

// buildQueries derives the pools from the mined pattern set of db and the
// run seed. Ad-hoc queries are connected 3-6-edge subgraphs cut from
// database graphs, distinct by canonical code and never a mined pattern,
// so they always take the server's cache-or-generic path.
func buildQueries(rng *rand.Rand, db graph.Database, mined pattern.Set, sc scale) *queries {
	q := &queries{}
	for _, key := range mined.Keys() {
		q.patterns = append(q.patterns, mined[key])
	}
	sort.Slice(q.patterns, func(i, j int) bool { return q.patterns[i].Code.Key() < q.patterns[j].Code.Key() })
	for _, p := range q.patterns {
		q.graphs = append(q.graphs, p.Code.Graph())
	}
	q.planned = len(q.patterns)

	seen := make(map[string]bool, sc.adhocPool)
	for tries := 0; q.adhoc() < sc.adhocPool && tries < 50*sc.adhocPool; tries++ {
		g := cutSubgraph(rng, db[rng.Intn(len(db))], 3+rng.Intn(4))
		if g == nil {
			continue
		}
		key := dfscode.MinCode(g).Key()
		if seen[key] || mined[key] != nil {
			continue
		}
		seen[key] = true
		q.graphs = append(q.graphs, g)
	}
	for b := 0; b < sc.batchPool; b++ {
		ids := make([]int, 0, 16)
		for i := 0; i < 12; i++ {
			ids = append(ids, rng.Intn(q.planned))
		}
		for i := 0; i < 4; i++ {
			ids = append(ids, q.planned+rng.Intn(q.adhoc()))
		}
		q.batches = append(q.batches, ids)
	}
	return q
}

// cutSubgraph grows a connected subgraph of g edge by edge from a random
// start edge until it has want edges; nil when g is too small.
func cutSubgraph(rng *rand.Rand, g *graph.Graph, want int) *graph.Graph {
	if g.EdgeCount() < want {
		return nil
	}
	type edge struct{ u, v, label int }
	var chosen []edge
	has := func(u, v int) bool {
		for _, e := range chosen {
			if (e.u == u && e.v == v) || (e.u == v && e.v == u) {
				return true
			}
		}
		return false
	}
	var verts []int
	inSub := make(map[int]bool)
	add := func(v int) {
		if !inSub[v] {
			inSub[v] = true
			verts = append(verts, v)
		}
	}
	start := rng.Intn(g.VertexCount())
	for g.Degree(start) == 0 {
		start = rng.Intn(g.VertexCount())
	}
	add(start)
	for len(chosen) < want {
		// Frontier: every unchosen edge with an endpoint in the subgraph.
		var frontier []edge
		for _, u := range verts {
			for _, e := range g.Adj[u] {
				if !has(u, e.To) {
					frontier = append(frontier, edge{u, e.To, e.Label})
				}
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		e := frontier[rng.Intn(len(frontier))]
		chosen = append(chosen, e)
		add(e.u)
		add(e.v)
	}
	out := graph.New(0)
	id := make(map[int]int, len(verts))
	for _, v := range verts {
		id[v] = out.AddVertex(g.Labels[v])
	}
	for _, e := range chosen {
		out.MustAddEdge(id[e.u], id[e.v], e.label)
	}
	out.SortAdjacency()
	return out
}

// update is one /v1/update request of the write side: its ops, whether it
// takes the full re-mine path, and the graph it leaves behind.
type update struct {
	ops   []server.Op
	full  bool         // add_graph: the server re-mines from scratch
	tid   int          // the transaction the request writes
	after *graph.Graph // that transaction once the request is applied
}

func (u update) body() []byte {
	b, err := json.Marshal(map[string]any{"ops": u.ops})
	if err != nil {
		panic(err) // plain structs of ints and strings
	}
	return b
}

// genUpdates draws n update requests against model, applying each to
// model as it goes (touched graphs are cloned first, so the caller's
// original graphs stay intact). All but every fullEvery-th are single
// in-place requests on one graph — relabel a
// vertex, relabel an edge, add an edge, add a vertex with its edge, remove
// an edge — whose target vertex is drawn in proportion to its update
// frequency, the paper's §5 update model; the rest append a graph.
func genUpdates(rng *rand.Rand, model *graph.Database, n, fullEvery, labels int) []update {
	out := make([]update, 0, n)
	for i := 0; i < n; i++ {
		if fullEvery > 0 && (i+1)%fullEvery == 0 {
			src := (*model)[rng.Intn(len(*model))].Clone()
			src.ID = len(*model)
			out = append(out, update{
				ops:   []server.Op{{Kind: server.OpAddGraph, Graph: graph.Format(src)}},
				full:  true,
				tid:   len(*model),
				after: src,
			})
			*model = append(*model, src)
			continue
		}
		tid := rng.Intn(len(*model))
		for (*model)[tid].EdgeCount() < 3 {
			tid = rng.Intn(len(*model))
		}
		g := (*model)[tid].Clone()
		ops := inPlaceOps(rng, g, tid, labels)
		(*model)[tid] = g
		out = append(out, update{ops: ops, tid: tid, after: g})
	}
	return out
}

// pickHot draws a vertex of g with probability proportional to its update
// frequency plus one, as the data generator's update rounds do.
func pickHot(rng *rand.Rand, g *graph.Graph) int {
	total := 0.0
	for v := 0; v < g.VertexCount(); v++ {
		total += g.UpdateFreq(v) + 1
	}
	x := rng.Float64() * total
	for v := 0; v < g.VertexCount(); v++ {
		if x -= g.UpdateFreq(v) + 1; x <= 0 {
			return v
		}
	}
	return g.VertexCount() - 1
}

// inPlaceOps draws one in-place request for graph tid, applies it to g
// exactly as server.Apply stages it, and returns its ops.
func inPlaceOps(rng *rand.Rand, g *graph.Graph, tid, labels int) []server.Op {
	label := func() int {
		if rng.Float64() < 0.3 {
			return labels + rng.Intn(labels) // a label outside the generated universe
		}
		return rng.Intn(labels)
	}
	u := pickHot(rng, g)
	for g.Degree(u) == 0 {
		u = pickHot(rng, g)
	}
	nb := g.Adj[u][rng.Intn(g.Degree(u))].To
	switch rng.Intn(5) {
	case 0:
		l := label()
		g.Labels[u] = l
		g.BumpUpdateFreq(u, 1)
		return []server.Op{{Kind: server.OpRelabelVertex, TID: tid, U: u, Label: l}}
	case 1:
		l := label()
		g.SetEdgeLabel(u, nb, l)
		g.BumpUpdateFreq(u, 1)
		g.BumpUpdateFreq(nb, 1)
		return []server.Op{{Kind: server.OpRelabelEdge, TID: tid, U: u, V: nb, Label: l}}
	case 2:
		for try := 0; try < 10; try++ {
			v := rng.Intn(g.VertexCount())
			if v == u || g.HasEdge(u, v) {
				continue
			}
			l := label()
			g.MustAddEdge(u, v, l)
			g.SortAdjacency()
			g.BumpUpdateFreq(u, 1)
			g.BumpUpdateFreq(v, 1)
			return []server.Op{{Kind: server.OpAddEdge, TID: tid, U: u, V: v, Label: l}}
		}
		fallthrough // u is adjacent to everything: grow the graph instead
	case 3:
		vl, el := label(), label()
		v := g.AddVertex(vl)
		g.BumpUpdateFreq(v, 1)
		g.MustAddEdge(u, v, el)
		g.SortAdjacency()
		g.BumpUpdateFreq(u, 1)
		g.BumpUpdateFreq(v, 1)
		return []server.Op{
			{Kind: server.OpAddVertex, TID: tid, Label: vl},
			{Kind: server.OpAddEdge, TID: tid, U: u, V: v, Label: el},
		}
	default:
		g.RemoveEdge(u, nb)
		g.BumpUpdateFreq(u, 1)
		g.BumpUpdateFreq(nb, 1)
		return []server.Op{{Kind: server.OpRemoveEdge, TID: tid, U: u, V: nb}}
	}
}

// oracle answers, independently of the system under test, what a read
// must return at any epoch: containment by exact subgraph isomorphism
// over the harness's own model of the database, pattern lists by gSpan
// over that model. Epoch 1 is the initial database; update i (0-based)
// publishes epoch i+2, because the single writer connection sends one
// request at a time and each is folded on its own.
type oracle struct {
	base    graph.Database
	updates []update
	minsup  int
	qs      *queries

	// Memos: every answer is computed once however often it was asked.
	baseTIDs map[int][]int                 // query id -> Scan over base
	hits     map[int]map[*graph.Graph]bool // query id -> touched graph -> contains
	written  map[int]map[int]*graph.Graph  // epoch -> touched
	sets     map[int]pattern.Set           // epoch -> gSpan set
	tops     map[int][]*pattern.Pattern    // epoch -> the top-k list the read mix asks for
	matchers map[int]*isomorph.Matcher
}

func newOracle(base graph.Database, updates []update, minsup int, qs *queries) *oracle {
	return &oracle{
		base: base, updates: updates, minsup: minsup, qs: qs,
		baseTIDs: make(map[int][]int),
		hits:     make(map[int]map[*graph.Graph]bool),
		written:  make(map[int]map[int]*graph.Graph),
		sets:     make(map[int]pattern.Set),
		tops:     make(map[int][]*pattern.Pattern),
		matchers: make(map[int]*isomorph.Matcher),
	}
}

// lastEpoch is the epoch after every update has been folded.
func (o *oracle) lastEpoch() int { return len(o.updates) + 1 }

// touched returns, for epoch, the current graph of every transaction an
// update has written so far.
func (o *oracle) touched(epoch int) map[int]*graph.Graph {
	m, ok := o.written[epoch]
	if !ok {
		m = make(map[int]*graph.Graph)
		for _, u := range o.updates[:epoch-1] {
			m[u.tid] = u.after
		}
		o.written[epoch] = m
	}
	return m
}

// database materialises the model at epoch.
func (o *oracle) database(epoch int) graph.Database {
	db := append(graph.Database(nil), o.base...)
	for _, u := range o.updates[:epoch-1] {
		if u.tid == len(db) {
			db = append(db, u.after)
		} else {
			db[u.tid] = u.after
		}
	}
	return db
}

// contains returns the ascending ids of the graphs containing query qid
// at epoch. The base database is scanned once per query; afterwards only
// the transactions updates have written are re-tested.
func (o *oracle) contains(qid, epoch int) []int {
	base, ok := o.baseTIDs[qid]
	if !ok {
		base = query.Scan(o.base, o.qs.graphs[qid])
		o.baseTIDs[qid] = base
	}
	if epoch <= 1 {
		return base
	}
	touched := o.touched(epoch)
	out := make([]int, 0, len(base)+len(touched))
	for _, tid := range base {
		if touched[tid] == nil {
			out = append(out, tid)
		}
	}
	for tid, g := range touched {
		if o.hit(qid, g) {
			out = append(out, tid)
		}
	}
	sort.Ints(out)
	return out
}

func (o *oracle) hit(qid int, g *graph.Graph) bool {
	memo := o.hits[qid]
	if memo == nil {
		memo = make(map[*graph.Graph]bool)
		o.hits[qid] = memo
	}
	h, ok := memo[g]
	if !ok {
		m := o.matchers[qid]
		if m == nil {
			m = isomorph.NewMatcher(o.qs.graphs[qid])
			o.matchers[qid] = m
		}
		h = m.Contains(g)
		memo[g] = h
	}
	return h
}

// patterns returns the frequent set of the model at epoch.
func (o *oracle) patterns(epoch int) pattern.Set {
	set, ok := o.sets[epoch]
	if !ok {
		set = gspan.Mine(o.database(epoch), gspan.Options{MinSupport: o.minsup})
		o.sets[epoch] = set
	}
	return set
}

// topK is the answer to the read mix's /v1/patterns?k=10&min_edges=3 at
// epoch, in Snapshot.TopKRange's total order: support descending,
// canonical key ascending.
func (o *oracle) topK(epoch int) []*pattern.Pattern {
	out, ok := o.tops[epoch]
	if ok {
		return out
	}
	for _, p := range o.patterns(epoch) {
		if p.Size() >= topKMin {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Code.Key() < out[j].Code.Key()
	})
	out = out[:min(len(out), topKK)]
	o.tops[epoch] = out
	return out
}

// diffSets explains how got differs from want in keys, supports and
// TIDs — the paper's lossless invariant; "" when they agree.
func diffSets(got, want pattern.Set) string {
	var lines []string
	for key, w := range want {
		g := got[key]
		switch {
		case g == nil:
			lines = append(lines, "missing "+w.String())
		case g.Support != w.Support:
			lines = append(lines, fmt.Sprintf("support of %s: got %d want %d", w.Code, g.Support, w.Support))
		case g.TIDs != nil && w.TIDs != nil && !g.TIDs.Equal(w.TIDs):
			lines = append(lines, fmt.Sprintf("tids of %s differ", w.Code))
		}
	}
	for key, g := range got {
		if want[key] == nil {
			lines = append(lines, "unexpected "+g.String())
		}
	}
	sort.Strings(lines)
	if len(lines) > 5 {
		lines = append(lines[:5], fmt.Sprintf("... and %d more", len(lines)-5))
	}
	return strings.Join(lines, "; ")
}
