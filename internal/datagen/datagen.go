// Package datagen implements the synthetic graph-database generator the
// paper's evaluation uses (§5, Table 1), in the style of the Kuramochi &
// Karypis generator that [15] describes: L potentially frequent kernel
// graphs with an average of I edges are generated first; each of the D
// database graphs is then assembled by planting randomly chosen kernels
// and padding with random vertices and edges until it reaches its target
// size drawn around T. Vertex and edge labels are drawn from N possible
// labels.
//
// The package also provides the paper's update workload (§5): relabeling
// vertices/edges with existing or new labels, adding edges between
// existing vertices, and adding new vertices with an incident edge. A
// configurable fraction of vertices is designated "hot"; updates prefer
// hot vertices, which is the locality the GraphPart criteria exploit.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"partminer/internal/graph"
)

// Config carries the Table 1 parameters.
type Config struct {
	// D is the number of graphs in the database.
	D int
	// N is the number of possible labels (for vertices and edges alike).
	N int
	// T is the average number of edges per graph.
	T int
	// I is the average number of edges in the potentially frequent
	// kernels.
	I int
	// L is the number of potentially frequent kernels.
	L int
	// Seed makes generation deterministic.
	Seed int64
	// HotFraction is the fraction of each graph's vertices marked as
	// frequently updated (update frequency HotWeight); default 0.1.
	HotFraction float64
	// HotWeight is the update frequency assigned to hot vertices;
	// default 5.
	HotWeight float64
	// Hubs, when > 0, switches each graph to hub-heavy generation: the
	// graph starts from Hubs hub vertices, and every kernel weld and
	// pendant attachment targets a hub drawn from a zipf-like power law
	// instead of a uniform vertex. The resulting degree skew concentrates
	// mining cost in a few units — the workload the vertex-cut strategy
	// exists for. 0 keeps the classic Kuramochi & Karypis shape.
	Hubs int
	// DegreeExponent is the power-law exponent of the hub popularity
	// distribution (P(hub i) ∝ 1/(i+1)^DegreeExponent); default 2.
	// Larger values concentrate attachments on fewer hubs. Ignored when
	// Hubs is 0.
	DegreeExponent float64
}

func (c Config) withDefaults() Config {
	if c.D <= 0 {
		c.D = 100
	}
	if c.N <= 0 {
		c.N = 20
	}
	if c.T <= 0 {
		c.T = 20
	}
	if c.I <= 0 {
		c.I = 5
	}
	if c.L <= 0 {
		c.L = 200
	}
	if c.HotFraction <= 0 {
		c.HotFraction = 0.1
	}
	if c.HotWeight <= 0 {
		c.HotWeight = 5
	}
	if c.Hubs < 0 {
		c.Hubs = 0
	}
	if c.DegreeExponent <= 0 {
		c.DegreeExponent = 2
	}
	return c
}

// Name renders the dataset name in the paper's convention, e.g.
// D50kT20N20L200I5.
func (c Config) Name() string {
	c = c.withDefaults()
	d := fmt.Sprint(c.D)
	if c.D%1000 == 0 {
		d = fmt.Sprintf("%dk", c.D/1000)
	}
	name := fmt.Sprintf("D%sT%dN%dL%dI%d", d, c.T, c.N, c.L, c.I)
	if c.Hubs > 0 {
		// The hub knobs change the generated data, so they must appear in
		// the name: consumers (the bench dataset cache) key on it.
		name += fmt.Sprintf("H%dE%g", c.Hubs, c.DegreeExponent)
	}
	return name
}

// Generate builds the database. Every graph is connected, has at least one
// edge, and carries update frequencies on its hot vertices.
func Generate(c Config) graph.Database {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	kernels := makeKernels(rng, c)
	// Kernel popularity follows an exponential-ish decay so some kernels
	// are genuinely frequent while most are rare, as in the Kuramochi &
	// Karypis workload.
	weights := make([]float64, len(kernels))
	totalW := 0.0
	for i := range weights {
		weights[i] = 1.0 / float64(i+1)
		totalW += weights[i]
	}
	pick := func() *graph.Graph {
		x := rng.Float64() * totalW
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return kernels[i]
			}
		}
		return kernels[len(kernels)-1]
	}

	db := make(graph.Database, c.D)
	for gid := 0; gid < c.D; gid++ {
		target := poissonAround(rng, c.T)
		if target < 1 {
			target = 1
		}
		g := graph.New(gid)
		var hub func() int
		if c.Hubs > 0 {
			hub = seedHubs(rng, g, c)
		}
		for g.EdgeCount() < target {
			if rng.Float64() < 0.7 || (g.EdgeCount() == 0 && c.Hubs == 0) {
				plantKernel(rng, g, pick(), c, hub)
			} else {
				padRandom(rng, g, c, hub)
			}
		}
		markHot(rng, g, c)
		db[gid] = g
	}
	return db
}

// makeKernels generates the L potentially frequent kernels, each a random
// connected graph whose edge count is drawn around I.
func makeKernels(rng *rand.Rand, c Config) []*graph.Graph {
	kernels := make([]*graph.Graph, c.L)
	for i := range kernels {
		m := poissonAround(rng, c.I)
		if m < 1 {
			m = 1
		}
		// A connected graph with m edges needs between ceil((1+sqrt(8m+1))/2)
		// and m+1 vertices; bias toward tree-like kernels.
		n := m + 1 - rng.Intn(m/3+1)
		if n < 2 {
			n = 2
		}
		kernels[i] = graph.RandomConnected(rng, i, n, m, c.N, c.N)
	}
	return kernels
}

// seedHubs starts a hub-heavy graph: Hubs vertices chained together (so
// the graph is born connected) that every later weld and pendant prefers
// to attach to. The returned chooser draws a hub index from the zipf-like
// power law P(i) ∝ 1/(i+1)^DegreeExponent — hub 0 dominates, the tail
// gets the scraps — which is what produces the heavy-degree skew.
func seedHubs(rng *rand.Rand, g *graph.Graph, c Config) func() int {
	for i := 0; i < c.Hubs; i++ {
		v := g.AddVertex(rng.Intn(c.N))
		if i > 0 {
			g.MustAddEdge(v-1, v, rng.Intn(c.N))
		}
	}
	cum := make([]float64, c.Hubs)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -c.DegreeExponent)
		cum[i] = total
	}
	return func() int {
		x := rng.Float64() * total
		for i, w := range cum {
			if x <= w {
				return i
			}
		}
		return c.Hubs - 1
	}
}

// plantKernel copies the kernel into g as fresh vertices and, if g was
// nonempty, welds it on with one connecting edge so the graph stays
// connected — to a power-law hub in hub-heavy mode, to a uniformly random
// existing vertex otherwise.
func plantKernel(rng *rand.Rand, g *graph.Graph, kernel *graph.Graph, c Config, hub func() int) {
	base := g.VertexCount()
	for _, l := range kernel.Labels {
		g.AddVertex(l)
	}
	for u := 0; u < kernel.VertexCount(); u++ {
		for _, e := range kernel.Adj[u] {
			if u < e.To {
				g.MustAddEdge(base+u, base+e.To, e.Label)
			}
		}
	}
	if base > 0 {
		u := 0
		if hub != nil {
			u = hub()
		} else {
			u = rng.Intn(base)
		}
		v := base + rng.Intn(kernel.VertexCount())
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, rng.Intn(c.N))
		}
	}
}

// padRandom adds either a random edge between existing vertices or a new
// pendant vertex; in hub-heavy mode one endpoint is drawn from the hub
// power law instead of uniformly.
func padRandom(rng *rand.Rand, g *graph.Graph, c Config, hub func() int) {
	n := g.VertexCount()
	if n >= 2 && rng.Float64() < 0.5 {
		for try := 0; try < 8; try++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if hub != nil {
				u = hub()
			}
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, rng.Intn(c.N))
				return
			}
		}
	}
	u := 0
	if n > 0 {
		if hub != nil {
			u = hub()
		} else {
			u = rng.Intn(n)
		}
	} else {
		u = g.AddVertex(rng.Intn(c.N))
	}
	v := g.AddVertex(rng.Intn(c.N))
	g.MustAddEdge(u, v, rng.Intn(c.N))
}

// markHot designates a fraction of vertices as frequently updated.
func markHot(rng *rand.Rand, g *graph.Graph, c Config) {
	for v := 0; v < g.VertexCount(); v++ {
		if rng.Float64() < c.HotFraction {
			g.BumpUpdateFreq(v, c.HotWeight)
		}
	}
}

// poissonAround draws an integer uniformly from [mean/2, 3·mean/2], whose
// expectation is the requested mean. The original generator uses a Poisson
// draw; a bounded uniform keeps the dataset averages on target (which is
// what the T and I parameters control) without heavy tails.
func poissonAround(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	return mean/2 + rng.Intn(mean+1)
}
