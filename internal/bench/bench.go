// Package bench regenerates every table and figure of the paper's
// evaluation (§5) as printed tables: the partitioning-criteria comparison
// (Fig. 13), runtime vs minimum support (Fig. 14), the effect of the
// number of units in serial and parallel modes (Fig. 15), scalability in T
// and D (Fig. 16), and the update-volume sweeps (Fig. 17).
//
// Datasets are scaled down from the paper's 50k–1000k graphs (a 2006
// testbed measured minutes per point) so the whole suite runs in minutes;
// the parameter sweeps and the qualitative shapes are preserved, and
// EXPERIMENTS.md records paper-vs-measured trends.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"partminer/internal/datagen"
	"partminer/internal/graph"
)

// Scale controls how far the paper's dataset sizes are divided down.
type Scale struct {
	// D50k replaces the paper's 50k-graph datasets (default 600).
	D50k int
	// D100k replaces the paper's 100k-graph datasets (default 800).
	D100k int
	// MaxEdges optionally bounds pattern size. The paper's runs are
	// unbounded (the default); tiny scales need the cap because a
	// percentage threshold over few graphs is a very low absolute
	// support, which explodes the pattern space.
	MaxEdges int
}

// DefaultScale runs each figure in seconds on a laptop.
var DefaultScale = Scale{D50k: 600, D100k: 800}

func (s Scale) withDefaults() Scale {
	if s.D50k <= 0 {
		s.D50k = DefaultScale.D50k
	}
	if s.D100k <= 0 {
		s.D100k = DefaultScale.D100k
	}
	return s
}

// Row is one x-axis point of a figure.
type Row struct {
	X       string
	Seconds []float64
}

// Table is a reproduced figure: one column per plotted series, one row per
// x-axis point, cells in seconds.
type Table struct {
	Name    string // e.g. "fig14a"
	Title   string
	Dataset string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	fmt.Fprintf(w, "dataset: %s\n", t.Dataset)
	header := append([]string{t.XLabel}, t.Columns...)
	widths := make([]int, len(header))
	cells := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		row := make([]string, 0, len(header))
		row = append(row, r.X)
		for _, s := range r.Seconds {
			row = append(row, fmt.Sprintf("%.3fs", s))
		}
		cells = append(cells, row)
	}
	for i, h := range header {
		widths[i] = len(h)
		for _, row := range cells {
			if i < len(row) && len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	printRow := func(row []string) {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(header)
	for _, row := range cells {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// datasets are cached per configuration: benchmarks re-enter figures many
// times and generation is deterministic.
var (
	dsMu    sync.Mutex
	dsCache = map[string]graph.Database{}
)

func dataset(cfg datagen.Config) graph.Database {
	key := fmt.Sprintf("%s-seed%d-hot%.2f", cfg.Name(), cfg.Seed, cfg.HotFraction)
	dsMu.Lock()
	defer dsMu.Unlock()
	if db, ok := dsCache[key]; ok {
		return db
	}
	db := datagen.Generate(cfg)
	dsCache[key] = db
	return db
}

// timeIt returns f's wall time in seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// Figure runs one named figure. Figures lists the valid names.
func Figure(name string, scale Scale) (*Table, error) {
	f, ok := figures[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown figure %q (have %s)", name, strings.Join(Figures(), ", "))
	}
	return f(scale.withDefaults()), nil
}

// Figures returns the available figure names in order.
func Figures() []string {
	names := make([]string, 0, len(figures))
	for n := range figures {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var figures = map[string]func(Scale) *Table{
	"13a": Fig13a,
	"13b": Fig13b,
	"14a": Fig14a,
	"14b": Fig14b,
	"15a": Fig15a,
	"15b": Fig15b,
	"16a": Fig16a,
	"16b": Fig16b,
	"17a": Fig17a,
	"17b": Fig17b,
}
