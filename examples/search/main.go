// Search: subgraph containment queries over a graph database, served by
// an index over PartMiner's result. A query that is a mined pattern is
// answered from the pattern's mined TID set; any other is narrowed to the
// graphs holding all of its vertex labels and edge triples, then verified
// with exact subgraph isomorphism. Every answer is checked against a full
// scan; the example panics on a disagreement.
//
//	go run ./examples/search
package main

import (
	"fmt"
	"math/rand"
	"time"

	"partminer"
)

func main() {
	db := partminer.Generate(partminer.GeneratorConfig{
		D: 400, T: 16, N: 12, L: 80, I: 4, Seed: 77,
	})

	t0 := time.Now()
	res, err := partminer.Mine(db, partminer.Options{
		MinSupport: 20, // 5%
		K:          2,
		MaxEdges:   4,
	})
	if err != nil {
		panic(err)
	}
	ix := partminer.NewSearchIndex(db, res)
	fmt.Printf("mined and indexed %d graphs (%d patterns answer planned reads) in %v\n\n",
		len(db), ix.PlanCount(), time.Since(t0).Round(time.Millisecond))

	// Queries: fragments cut out of database graphs (guaranteed nonempty
	// answers) of growing size.
	rng := rand.New(rand.NewSource(5))
	fmt.Println("query  answers  candidates  pruned   index     scan")
	for _, size := range []int{3, 4, 5, 6} {
		q := fragment(rng, db[rng.Intn(len(db))], size)

		t0 = time.Now()
		hits, st := ix.Find(q)
		indexTime := time.Since(t0)

		t0 = time.Now()
		scanHits := partminer.SearchScan(db, q)
		scanTime := time.Since(t0)

		if fmt.Sprint(hits) != fmt.Sprint(scanHits) {
			panic("index and scan disagree")
		}
		fmt.Printf("%4dE   %6d   %9d   %5.1f%%  %8v  %8v\n",
			q.EdgeCount(), len(hits), st.Candidates,
			100*(1-float64(st.Candidates)/float64(len(db))),
			indexTime.Round(time.Microsecond), scanTime.Round(time.Microsecond))
	}
	fmt.Println("\nindex answers verified against full scans.")
}

// fragment cuts a connected induced piece of size vertices out of g.
func fragment(rng *rand.Rand, g *partminer.Graph, size int) *partminer.Graph {
	start := rng.Intn(g.VertexCount())
	keep := []int{start}
	seen := map[int]bool{start: true}
	for i := 0; i < len(keep) && len(keep) < size; i++ {
		for _, e := range g.Adj[keep[i]] {
			if !seen[e.To] && len(keep) < size {
				seen[e.To] = true
				keep = append(keep, e.To)
			}
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}
