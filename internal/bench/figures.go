package bench

import (
	"fmt"

	"partminer/internal/adimine"
	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/graph"
	"partminer/internal/partition"
)

// base50k is the stand-in for the paper's D50kT20N20L200I5 dataset.
func base50k(s Scale) datagen.Config {
	return datagen.Config{D: s.D50k, T: 20, N: 20, L: 200, I: 5, Seed: 42}
}

// base100kI9 is the stand-in for D100kT20N20L200I9 (Fig. 15).
func base100kI9(s Scale) datagen.Config {
	return datagen.Config{D: s.D100k, T: 20, N: 20, L: 200, I: 9, Seed: 43}
}

func pct(f float64) string { return fmt.Sprintf("%g%%", f*100) }

// sup converts a fractional minimum support for db.
func sup(db graph.Database, frac float64) int {
	return core.AbsoluteSupport(db, frac)
}

// adimineStatic is ADIMINE's cost on a fresh database: index construction
// plus mining (the index cannot be reused across databases).
func adimineStatic(db graph.Database, minSup, maxEdges int) float64 {
	return timeIt(func() {
		if _, err := adimine.Mine(db, adimine.Options{MinSupport: minSup, MaxEdges: maxEdges}); err != nil {
			panic(err)
		}
	})
}

// partStatic runs PartMiner and returns the result with its aggregate
// wall-clock seconds.
func partStatic(db graph.Database, opts core.Options) (*core.Result, float64) {
	var res *core.Result
	secs := timeIt(func() {
		var err error
		res, err = core.PartMiner(db, opts)
		if err != nil {
			panic(err)
		}
	})
	return res, secs
}

// dynamic prepares an update scenario: a pre-mined baseline on db plus the
// updated database and its changed tids.
func dynamic(db graph.Database, opts core.Options, ucfg datagen.UpdateConfig) (*core.Result, graph.Database, []int) {
	prev, err := core.PartMiner(db, opts)
	if err != nil {
		panic(err)
	}
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, ucfg)
	return prev, newDB, updated
}

func incTime(newDB graph.Database, updated []int, prev *core.Result) float64 {
	return timeIt(func() {
		if _, err := core.IncPartMiner(newDB, updated, prev); err != nil {
			panic(err)
		}
	})
}

// Fig13a — §5.1.1, static: partitioning criteria vs ADIMINE across
// minimum support. Expected: Partition2 best among the criteria; all
// three at least competitive with METIS.
func Fig13a(s Scale) *Table {
	cfg := base50k(s)
	db := dataset(cfg)
	t := &Table{
		Name:    "fig13a",
		Title:   "partitioning criteria, static datasets (runtime vs minsup)",
		Dataset: cfg.Name(),
		XLabel:  "minsup",
		Columns: []string{"ADIMINE", "METIS", "Partition1", "Partition2", "Partition3"},
	}
	bisectors := []partition.Bisector{
		partition.Metis{}, partition.Partition1, partition.Partition2, partition.Partition3,
	}
	for _, frac := range []float64{0.02, 0.03, 0.04, 0.05, 0.06} {
		ms := sup(db, frac)
		row := Row{X: pct(frac)}
		row.Seconds = append(row.Seconds, adimineStatic(db, ms, s.MaxEdges))
		for _, b := range bisectors {
			_, secs := partStatic(db, core.Options{MinSupport: ms, K: 2, Bisector: b, MaxEdges: s.MaxEdges})
			row.Seconds = append(row.Seconds, secs)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig13b — §5.1.1, dynamic: the same partitioners under IncPartMiner with
// 40% of graphs updated. Expected: Partition3 best (it both cuts few edges
// and isolates the updated vertices).
func Fig13b(s Scale) *Table {
	cfg := base50k(s)
	db := dataset(cfg)
	t := &Table{
		Name:    "fig13b",
		Title:   "partitioning criteria, dynamic datasets (IncPartMiner after 40% updates)",
		Dataset: cfg.Name() + " +40% updates",
		XLabel:  "minsup",
		Columns: []string{"ADIMINE", "METIS", "Partition1", "Partition2", "Partition3"},
	}
	bisectors := []partition.Bisector{
		partition.Metis{}, partition.Partition1, partition.Partition2, partition.Partition3,
	}
	// The update round is deterministic and independent of the bisector.
	newDB := db.Clone()
	updated := datagen.ApplyUpdates(newDB, datagen.UpdateConfig{Fraction: 0.4, Seed: 7, N: cfg.N})
	for _, frac := range []float64{0.02, 0.03, 0.04, 0.05, 0.06} {
		ms := sup(db, frac)
		row := Row{X: pct(frac)}
		// ADIMINE must rebuild its index over the updated database and
		// re-mine from scratch.
		row.Seconds = append(row.Seconds, adimineStatic(newDB, ms, s.MaxEdges))
		for _, b := range bisectors {
			prev, err := core.PartMiner(db, core.Options{MinSupport: ms, K: 2, Bisector: b, MaxEdges: s.MaxEdges})
			if err != nil {
				panic(err)
			}
			row.Seconds = append(row.Seconds, incTime(newDB, updated, prev))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14a — §5.1.2, static: runtime vs minimum support, ADIMINE vs
// PartMiner. Expected: ADIMINE wins below a crossover (~1.5% in the
// paper); PartMiner wins above it.
func Fig14a(s Scale) *Table {
	cfg := base50k(s)
	db := dataset(cfg)
	t := &Table{
		Name:    "fig14a",
		Title:   "runtime vs minimum support, static datasets",
		Dataset: cfg.Name(),
		XLabel:  "minsup",
		Columns: []string{"ADIMINE", "PartMiner"},
	}
	for _, frac := range []float64{0.01, 0.015, 0.02, 0.03, 0.04, 0.05, 0.06} {
		ms := sup(db, frac)
		row := Row{X: pct(frac)}
		row.Seconds = append(row.Seconds, adimineStatic(db, ms, s.MaxEdges))
		_, secs := partStatic(db, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges})
		row.Seconds = append(row.Seconds, secs)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14b — §5.1.2, dynamic: after updating 40% of the graphs, IncPartMiner
// vs re-running PartMiner or ADIMINE. Expected: IncPartMiner below both.
func Fig14b(s Scale) *Table {
	cfg := base50k(s)
	db := dataset(cfg)
	t := &Table{
		Name:    "fig14b",
		Title:   "runtime vs minimum support, dynamic datasets (40% updates)",
		Dataset: cfg.Name() + " +40% updates",
		XLabel:  "minsup",
		Columns: []string{"ADIMINE", "PartMiner", "IncPartMiner"},
	}
	for _, frac := range []float64{0.01, 0.015, 0.02, 0.03, 0.04, 0.05, 0.06} {
		ms := sup(db, frac)
		prev, newDB, upd := dynamic(db, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges}, datagen.UpdateConfig{Fraction: 0.4, Seed: 11, N: cfg.N})
		row := Row{X: pct(frac)}
		row.Seconds = append(row.Seconds, adimineStatic(newDB, ms, s.MaxEdges))
		_, secs := partStatic(newDB, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges})
		row.Seconds = append(row.Seconds, secs)
		row.Seconds = append(row.Seconds, incTime(newDB, upd, prev))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15a — §5.1.3, static: effect of the number of units k. Aggregate time
// sums all unit minings (serial mode); parallel time takes the slowest
// unit (units run concurrently). Expected: aggregate grows with k;
// parallel stays below ADIMINE.
func Fig15a(s Scale) *Table {
	cfg := base100kI9(s)
	db := dataset(cfg)
	ms := sup(db, 0.04)
	t := &Table{
		Name:    "fig15a",
		Title:   "runtime vs number of units k, static datasets (minsup 4%)",
		Dataset: cfg.Name(),
		XLabel:  "k",
		Columns: []string{"ADIMINE", "Aggregate", "Parallel"},
	}
	adi := adimineStatic(db, ms, s.MaxEdges)
	for k := 1; k <= 6; k++ {
		res, serialSecs := partStatic(db, core.Options{MinSupport: ms, K: k, MaxEdges: s.MaxEdges})
		_ = res
		_, parSecs := partStatic(db, core.Options{MinSupport: ms, K: k, MaxEdges: s.MaxEdges, Parallel: true})
		t.Rows = append(t.Rows, Row{
			X:       fmt.Sprint(k),
			Seconds: []float64{adi, serialSecs, parSecs},
		})
	}
	t.Notes = append(t.Notes, "parallel mode mines units concurrently and verifies merge candidates across all cores")
	return t
}

// Fig15b — §5.1.3, dynamic: the same sweep under IncPartMiner after 40%
// updates. Expected: IncPartMiner below ADIMINE in both modes.
func Fig15b(s Scale) *Table {
	cfg := base100kI9(s)
	db := dataset(cfg)
	ms := sup(db, 0.04)
	t := &Table{
		Name:    "fig15b",
		Title:   "runtime vs number of units k, dynamic datasets (minsup 4%, 40% updates)",
		Dataset: cfg.Name() + " +40% updates",
		XLabel:  "k",
		Columns: []string{"ADIMINE", "Aggregate", "Parallel"},
	}
	for k := 1; k <= 6; k++ {
		prev, newDB, upd := dynamic(db, core.Options{MinSupport: ms, K: k, MaxEdges: s.MaxEdges}, datagen.UpdateConfig{Fraction: 0.4, Seed: 13, N: cfg.N})
		adi := adimineStatic(newDB, ms, s.MaxEdges)
		serialSecs := incTime(newDB, upd, prev)
		popts := prev.Options
		popts.Parallel = true
		prevPar, err := core.PartMiner(db, popts)
		if err != nil {
			panic(err)
		}
		parSecs := incTime(newDB, upd, prevPar)
		t.Rows = append(t.Rows, Row{
			X:       fmt.Sprint(k),
			Seconds: []float64{adi, serialSecs, parSecs},
		})
	}
	return t
}

// Fig16a — §5.1.4: scalability in the average graph size T at minsup 4%.
// Expected: near-linear growth, PartMiner below ADIMINE.
func Fig16a(s Scale) *Table {
	t := &Table{
		Name:    "fig16a",
		Title:   "scalability in transaction size T (minsup 4%)",
		Dataset: fmt.Sprintf("D%dN20I5L200, T swept", s.D100k),
		XLabel:  "T",
		Columns: []string{"ADIMINE", "PartMiner"},
	}
	for _, T := range []int{10, 15, 20, 25} {
		cfg := datagen.Config{D: s.D100k, T: T, N: 20, L: 200, I: 5, Seed: 44}
		db := dataset(cfg)
		ms := sup(db, 0.04)
		row := Row{X: fmt.Sprint(T)}
		row.Seconds = append(row.Seconds, adimineStatic(db, ms, s.MaxEdges))
		_, secs := partStatic(db, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges})
		row.Seconds = append(row.Seconds, secs)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig16b — §5.1.4: scalability in the database size D at minsup 4%.
// The paper sweeps 50k–1000k (20×); we sweep the same 20× ratio from the
// scaled base. Expected: linear growth for both, PartMiner below ADIMINE.
func Fig16b(s Scale) *Table {
	base := s.D50k / 2
	t := &Table{
		Name:    "fig16b",
		Title:   "scalability in database size D (minsup 4%)",
		Dataset: "T20N20I5L200, D swept",
		XLabel:  "D",
		Columns: []string{"ADIMINE", "PartMiner"},
	}
	for _, mult := range []int{1, 2, 4, 8, 20} {
		d := base * mult
		cfg := datagen.Config{D: d, T: 20, N: 20, L: 200, I: 5, Seed: 45}
		db := dataset(cfg)
		ms := sup(db, 0.04)
		row := Row{X: fmt.Sprint(d)}
		row.Seconds = append(row.Seconds, adimineStatic(db, ms, s.MaxEdges))
		_, secs := partStatic(db, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges})
		row.Seconds = append(row.Seconds, secs)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig17a — §5.1.5: relabeling updates (existing or new labels) from 20% to
// 80% of the graphs at minsup 4%. Expected: IncPartMiner below ADIMINE
// across the sweep.
func Fig17a(s Scale) *Table {
	return fig17(s, "fig17a", "update vertex/edge labels", []datagen.UpdateKind{datagen.Relabel})
}

// Fig17b — §5.1.5: structural updates (new vertices/edges). Same
// expectation as 17a.
func Fig17b(s Scale) *Table {
	return fig17(s, "fig17b", "add new vertices/edges", []datagen.UpdateKind{datagen.AddEdge, datagen.AddVertex})
}

func fig17(s Scale, name, what string, kinds []datagen.UpdateKind) *Table {
	cfg := base50k(s)
	db := dataset(cfg)
	ms := sup(db, 0.04)
	t := &Table{
		Name:    name,
		Title:   fmt.Sprintf("effect of update volume: %s (minsup 4%%)", what),
		Dataset: cfg.Name(),
		XLabel:  "updated",
		Columns: []string{"ADIMINE", "IncPartMiner"},
	}
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		prev, newDB, upd := dynamic(db, core.Options{MinSupport: ms, K: 2, MaxEdges: s.MaxEdges},
			datagen.UpdateConfig{Fraction: frac, Kinds: kinds, Seed: 17, N: cfg.N})
		row := Row{X: pct(frac)}
		row.Seconds = append(row.Seconds, adimineStatic(newDB, ms, s.MaxEdges))
		row.Seconds = append(row.Seconds, incTime(newDB, upd, prev))
		t.Rows = append(t.Rows, row)
	}
	return t
}
