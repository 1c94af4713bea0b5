// Package adimine implements the paper's comparator: an ADI-style
// disk-based frequent-subgraph miner in the spirit of Wang, Wang, Pei, Zhu
// & Shi (SIGKDD'04). The graph database is serialized into block storage
// (internal/storage); an adjacency/edge index records, for every distinct
// edge label triple, the transactions containing it; mining is depth-first
// pattern growth whose graph accesses are decoded from pages through a
// bounded buffer pool and a small decoded-graph cache.
//
// The property the paper's evaluation leans on is preserved faithfully:
// the ADI index is built for a fixed database, so any update forces a full
// rebuild (Rebuild) followed by mining from scratch — there is no
// incremental path. IncPartMiner's wins in Figs. 14(b), 15(b) and 17 come
// precisely from this asymmetry.
package adimine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"partminer/internal/dfscode"
	"partminer/internal/extend"
	"partminer/internal/graph"
	"partminer/internal/pattern"
	"partminer/internal/storage"
)

// Options configures the index and its miner.
type Options struct {
	// MinSupport is the absolute minimum support; values below 1 are 1.
	MinSupport int
	// MaxEdges bounds pattern size; 0 means unbounded.
	MaxEdges int
	// PoolPages is the buffer-pool size in pages (default 64).
	PoolPages int
	// PageSize in bytes (default storage.DefaultPageSize).
	PageSize int
	// CacheGraphs bounds the decoded-graph cache (default 32). Small
	// values emulate tight memory: every miss re-decodes from pages.
	CacheGraphs int
}

func (o Options) minSup() int {
	if o.MinSupport < 1 {
		return 1
	}
	return o.MinSupport
}

func (o Options) cacheGraphs() int {
	if o.CacheGraphs <= 0 {
		return 32
	}
	return o.CacheGraphs
}

// span locates one serialized graph in the backing file.
type span struct {
	off    int64
	length int
}

// edgeEntry locates one edge-table record (the TID list of a label
// triple) in the backing file. Only the directory lives in memory; the
// TID lists themselves are page-resident, like ADI's linked blocks.
type edgeEntry struct {
	off    int64
	length int
	count  int
}

// Index is the on-disk database plus its edge index.
type Index struct {
	mgr   *storage.Manager
	spans []span
	// edgeIndex is the in-memory directory of the page-resident ADI edge
	// table: each (li,le,lj) triple (li <= lj) maps to the file span
	// holding its supporting transaction ids.
	edgeIndex map[[3]int]edgeEntry
	opts      Options

	cache   map[int]*cacheEntry
	lruHead *cacheEntry
	lruTail *cacheEntry

	// Decodes counts graph decodings from pages (cache misses).
	Decodes int64
}

type cacheEntry struct {
	tid        int
	g          *graph.Graph
	prev, next *cacheEntry
}

// BuildIndex serializes db into block storage and constructs the edge
// index. Close the index to release the backing file.
func BuildIndex(db graph.Database, opts Options) (*Index, error) {
	mgr, err := storage.New(storage.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	ix := &Index{
		mgr:       mgr,
		edgeIndex: make(map[[3]int]edgeEntry),
		opts:      opts,
		cache:     make(map[int]*cacheEntry),
	}
	app := mgr.NewAppender()
	tidLists := make(map[[3]int]*pattern.TIDSet)
	for tid, g := range db {
		off := app.Offset()
		rec := encodeGraph(g)
		if _, err := app.Write(rec); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("adimine: serialize graph %d: %w", tid, err)
		}
		ix.spans = append(ix.spans, span{off: off, length: len(rec)})
		for u := 0; u < g.VertexCount(); u++ {
			for _, e := range g.Adj[u] {
				if u > e.To {
					continue
				}
				li, lj := g.Labels[u], g.Labels[e.To]
				if li > lj {
					li, lj = lj, li
				}
				key := [3]int{li, e.Label, lj}
				ts, ok := tidLists[key]
				if !ok {
					ts = pattern.NewTIDSet(len(db))
					tidLists[key] = ts
				}
				ts.Add(tid)
			}
		}
	}
	// Lay the edge table into pages after the graph records; only the
	// directory (triple -> span) stays in memory.
	for key, ts := range tidLists {
		tids := ts.Slice()
		rec := make([]byte, 0, 4*len(tids))
		for _, tid := range tids {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(tid))
		}
		off := app.Offset()
		if _, err := app.Write(rec); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("adimine: serialize edge table: %w", err)
		}
		ix.edgeIndex[key] = edgeEntry{off: off, length: len(rec), count: len(tids)}
	}
	if err := mgr.Flush(); err != nil {
		mgr.Close()
		return nil, err
	}
	return ix, nil
}

// edgeTIDs reads a triple's supporting transactions from the page-resident
// edge table.
func (ix *Index) edgeTIDs(key [3]int) ([]int, error) {
	entry, ok := ix.edgeIndex[key]
	if !ok {
		return nil, nil
	}
	raw, err := ix.mgr.ReadSpan(entry.off, entry.length)
	if err != nil {
		return nil, err
	}
	tids := make([]int, 0, entry.count)
	for i := 0; i+4 <= len(raw); i += 4 {
		tids = append(tids, int(binary.LittleEndian.Uint32(raw[i:])))
	}
	return tids, nil
}

// Close releases the backing file.
func (ix *Index) Close() error { return ix.mgr.Close() }

// StorageStats returns the buffer pool's I/O counters.
func (ix *Index) StorageStats() storage.Stats { return ix.mgr.Stats() }

// Len implements extend.Source.
func (ix *Index) Len() int { return len(ix.spans) }

// Graph implements extend.Source: it decodes the transaction from pages,
// serving repeats from the bounded LRU cache.
func (ix *Index) Graph(tid int) *graph.Graph {
	if e, ok := ix.cache[tid]; ok {
		ix.lruRemove(e)
		ix.lruAppend(e)
		return e.g
	}
	raw, err := ix.mgr.ReadSpan(ix.spans[tid].off, ix.spans[tid].length)
	if err != nil {
		// Reads of spans recorded at build time cannot fail unless the
		// backing file is gone; treat as programmer error.
		panic(fmt.Sprintf("adimine: read graph %d: %v", tid, err))
	}
	g := decodeGraph(raw)
	ix.Decodes++
	e := &cacheEntry{tid: tid, g: g}
	ix.cache[tid] = e
	ix.lruAppend(e)
	if len(ix.cache) > ix.opts.cacheGraphs() {
		victim := ix.lruHead
		ix.lruRemove(victim)
		delete(ix.cache, victim.tid)
	}
	return g
}

func (ix *Index) lruAppend(e *cacheEntry) {
	e.prev, e.next = ix.lruTail, nil
	if ix.lruTail != nil {
		ix.lruTail.next = e
	}
	ix.lruTail = e
	if ix.lruHead == nil {
		ix.lruHead = e
	}
}

func (ix *Index) lruRemove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ix.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ix.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// FrequentEdgeCount reports how many edge triples meet the support
// threshold — the part of mining the ADI edge table answers from its
// directory alone, without touching graph records.
func (ix *Index) FrequentEdgeCount(minSup int) int {
	n := 0
	for _, entry := range ix.edgeIndex {
		if entry.count >= minSup {
			n++
		}
	}
	return n
}

// Mine runs depth-first pattern growth over the indexed database. The
// result matches gspan.Mine on the in-memory database.
func (ix *Index) Mine() pattern.Set {
	out := make(pattern.Set)
	minSup := ix.opts.minSup()
	run := &minerRun{ix: ix, ext: extend.NewExtender(), memo: dfscode.NewCanonMemo()}
	// Seed from the edge table: only frequent triples spawn projections,
	// and only their supporting transactions are decoded.
	type seed struct {
		key [3]int
	}
	var seeds []seed
	for key, entry := range ix.edgeIndex {
		if entry.count >= minSup {
			seeds = append(seeds, seed{key})
		}
	}
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i].key, seeds[j].key
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, s := range seeds {
		li, le, lj := s.key[0], s.key[1], s.key[2]
		code := dfscode.Code{{I: 0, J: 1, LI: li, LE: le, LJ: lj}}
		tids, err := ix.edgeTIDs(s.key)
		if err != nil {
			panic(fmt.Sprintf("adimine: read edge table: %v", err))
		}
		var proj extend.Projection
		for _, tid := range tids {
			g := ix.Graph(tid)
			for u := 0; u < g.VertexCount(); u++ {
				for _, e := range g.Adj[u] {
					if g.Labels[u] == li && e.Label == le && g.Labels[e.To] == lj {
						proj = append(proj, run.ext.Seed(tid, u, e.To))
					}
				}
			}
		}
		ptids := proj.TIDs(ix.Len())
		out.Add(&pattern.Pattern{Code: code.Clone(), Support: ptids.Count(), TIDs: ptids})
		if ix.opts.MaxEdges == 0 || ix.opts.MaxEdges > 1 {
			run.grow(code, proj, out)
		}
	}
	return out
}

// minerRun carries one Mine call's allocation state: the embedding arena
// plus extension scratch, and the canonicality memo.
type minerRun struct {
	ix   *Index
	ext  *extend.Extender
	memo *dfscode.CanonMemo
}

func (r *minerRun) grow(code dfscode.Code, proj extend.Projection, out pattern.Set) {
	ix := r.ix
	for _, cand := range r.ext.Extensions(ix, code, proj, nil) {
		if cand.Proj.Support() < ix.opts.minSup() {
			continue
		}
		child := append(code.Clone(), cand.Edge)
		if !r.memo.IsCanonicalTick(child, nil) {
			continue
		}
		tids := cand.Proj.TIDs(ix.Len())
		out.Add(&pattern.Pattern{Code: child.Clone(), Support: tids.Count(), TIDs: tids})
		if ix.opts.MaxEdges == 0 || len(child) < ix.opts.MaxEdges {
			r.grow(child, cand.Proj, out)
		}
	}
}

// Mine is the one-shot convenience: build the index, mine, and close.
func Mine(db graph.Database, opts Options) (pattern.Set, error) {
	ix, err := BuildIndex(db, opts)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	return ix.Mine(), nil
}

// Rebuild discards the index and constructs a fresh one over the updated
// database — ADIMINE's only answer to updates (§2: "the ADI structure has
// to be rebuilt each time the graph database is being updated").
func (ix *Index) Rebuild(db graph.Database) (*Index, error) {
	opts := ix.opts
	if err := ix.Close(); err != nil {
		return nil, err
	}
	return BuildIndex(db, opts)
}

// encodeGraph serializes a graph as little-endian uint32 fields:
// id, nv, labels…, ne, (u, v, label)….
func encodeGraph(g *graph.Graph) []byte {
	nv, ne := g.VertexCount(), g.EdgeCount()
	buf := make([]byte, 0, 4*(3+nv+3*ne))
	put := func(x int) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	put(g.ID)
	put(nv)
	for _, l := range g.Labels {
		put(l)
	}
	put(ne)
	for u := 0; u < nv; u++ {
		for _, e := range g.Adj[u] {
			if u < e.To {
				put(u)
				put(e.To)
				put(e.Label)
			}
		}
	}
	return buf
}

func decodeGraph(raw []byte) *graph.Graph {
	pos := 0
	get := func() int {
		v := int(binary.LittleEndian.Uint32(raw[pos:]))
		pos += 4
		return v
	}
	g := graph.New(get())
	nv := get()
	for i := 0; i < nv; i++ {
		g.AddVertex(get())
	}
	ne := get()
	for i := 0; i < ne; i++ {
		u, v, l := get(), get(), get()
		g.MustAddEdge(u, v, l)
	}
	// Decoded graphs are private to the index, so establishing the sorted
	// adjacency invariant here is free determinism-wise and lets the
	// extension enumerator's EdgeLabel probes binary-search.
	g.SortAdjacency()
	return g
}
