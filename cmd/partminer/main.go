// Command partminer mines the frequent subgraphs of a graph database in
// the gSpan-style text format, using the paper's partition-based
// algorithm. With -updated it runs IncPartMiner instead: it mines the
// original database, applies the updated database, and reports the
// UF/FI/IF pattern classification.
//
// Usage:
//
//	partminer -minsup 0.04 -k 4 db.txt
//	partminer -minsup 0.04 -k 4 -updated db2.txt -changed 3,17,42 db.txt
//	partminer -minsup 0.04 -miner adimine db.txt     # disk-based baseline
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partminer/internal/adimine"
	"partminer/internal/core"
	"partminer/internal/exec"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/obs"
	"partminer/internal/partition"
	"partminer/internal/pattern"
)

// standalone holds the -miner values besides partminer: whole-database
// miners, which take none of the partitioning options.
var standalone = map[string]func(ctx context.Context, db graph.Database, sup, maxEdges int) (pattern.Set, error){
	"gspan": func(ctx context.Context, db graph.Database, sup, maxEdges int) (pattern.Set, error) {
		return gspan.MineContext(ctx, db, gspan.Options{MinSupport: sup, MaxEdges: maxEdges})
	},
	"gaston": func(ctx context.Context, db graph.Database, sup, maxEdges int) (pattern.Set, error) {
		return gaston.MineContext(ctx, db, gaston.Options{MinSupport: sup, MaxEdges: maxEdges})
	},
	"adimine": func(_ context.Context, db graph.Database, sup, maxEdges int) (pattern.Set, error) {
		return adimine.Mine(db, adimine.Options{MinSupport: sup, MaxEdges: maxEdges})
	},
}

// minerNames lists the -miner values, for the flag help and for the
// error an unknown value gets.
func minerNames() string {
	names := make([]string, 0, len(standalone))
	for name := range standalone {
		names = append(names, name)
	}
	sort.Strings(names)
	return "partminer, " + strings.Join(names, ", ")
}

func main() {
	minsup := flag.Float64("minsup", 0.04, "minimum support as a fraction of the database (0.04 = 4%), or an absolute count when >= 1")
	k := flag.Int("k", 2, "number of units")
	maxEdges := flag.Int("maxedges", 0, "bound on pattern size (0 = unbounded)")
	envelope := flag.Int("envelope", 0, "growth envelope: unit miners stop at this many edges and the merge-join alone continues to -maxedges (0 there = unbounded); 0 mines every size in the units (partminer algorithm, -k > 1)")
	parallel := flag.Bool("parallel", false, "mine units in parallel, at most GOMAXPROCS at once")
	timeout := flag.Duration("timeout", 0, "abort mining after this duration (0 = none); SIGINT/SIGTERM also cancel")
	phases := flag.Bool("phases", false, "print the per-phase breakdown (stage timings and work counters) to stderr")
	statsJSON := flag.String("statsjson", "", "write the per-phase breakdown as JSON to this file ('-' for stdout)")
	criteria := flag.String("criteria", "partition3", "partitioning strategy: "+strings.Join(partition.Names(), ", "))
	miner := flag.String("miner", "partminer", "algorithm: "+minerNames())
	updatedPath := flag.String("updated", "", "updated database for incremental mining")
	changed := flag.String("changed", "", "comma-separated ids of updated graphs (with -updated; derived by comparison when empty, and an updated graph missing from the list is an error)")
	showAll := flag.Bool("patterns", false, "print every pattern, not just the summary")
	savePath := flag.String("save", "", "save the mining result with its database as a snapshot (binary, versioned) for later incremental runs")
	resumePath := flag.String("resume", "", "resume from a -save snapshot instead of mining from scratch; its database must equal the database argument")
	condense := flag.String("condense", "", "report only 'closed' or 'maximal' patterns (post-mining condensation)")
	tracePath := flag.String("trace", "", "write the run's span tree as JSON to this file ('-' for stdout)")
	flame := flag.Bool("flame", false, "print a flame-style rendering of the run's span tree to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	runID := fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().Unix())
	log := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("run_id", runID)

	// Ctrl-C / SIGTERM cancel the run cooperatively: every mining layer
	// observes the context and unwinds with ctx.Err().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Both renderings are views of one registry — the accumulator behind
	// the server's /v1/stats and /metrics — plus the partition quality of
	// the last mining round, so every consumer reports the same numbers
	// under the same names.
	var registry *obs.Registry
	var quality *partition.Quality
	if *phases || *statsJSON != "" {
		registry = obs.NewRegistry("partminer_")
	}
	stats := func() obs.View {
		v := registry.View()
		v.Partition = quality
		return v
	}
	if *phases {
		defer func() { fmt.Fprint(os.Stderr, stats()) }()
	}
	if *statsJSON != "" {
		defer func() {
			if err := writeStatsJSON(*statsJSON, stats()); err != nil {
				log.Error("statsjson write failed", "err", err)
			}
		}()
	}

	// Profiles and the trace tree are written by deferred finishers, so
	// they cover every miner path; fatal exits skip them by design.
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Error("memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error("memprofile", "err", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}

	// The trace root span rides the context: every layer below (core's
	// phases, the unit miners' internal stages, merge-join, the index
	// build) hangs its spans and stage reports off it.
	var tracer *obs.Tracer
	if *tracePath != "" || *flame {
		tracer = obs.NewTracer(runID)
		ctx = obs.WithSpan(ctx, tracer.Root())
		defer func() {
			tracer.Finish()
			if *flame {
				tracer.WriteFlame(os.Stderr)
			}
			if *tracePath != "" {
				if err := writeTrace(*tracePath, tracer); err != nil {
					log.Error("trace write failed", "err", err)
				}
			}
		}()
	}
	// Standalone miners (-miner gspan/gaston) read the ambient
	// observer off the context; core installs its own per-unit fan-out on
	// top of this one. The indirection through a plain Observer keeps a
	// nil *Registry from becoming a non-nil interface.
	var runObs exec.Observer
	if registry != nil {
		runObs = registry
	}
	ctx = obs.ObserverInContext(ctx, runObs)

	db := readDB(flag.Arg(0))
	sup := absSupport(db, *minsup)
	log.Info("database loaded", "graphs", len(db), "min_support", sup)

	bis, err := partition.ByName(*criteria)
	if err != nil {
		fatal(err)
	}

	if mine, ok := standalone[*miner]; ok {
		start := time.Now()
		set, err := mine(ctx, db, sup, *maxEdges)
		if err != nil {
			fatal(err)
		}
		report(condenseSet(set, *condense), time.Since(start), *showAll)
		return
	}
	if *miner != "partminer" {
		fatal(fmt.Errorf("unknown miner %q (have %s)", *miner, minerNames()))
	}

	opts := core.Options{MinSupport: sup, K: *k, MaxEdges: *maxEdges, GrowthEnvelope: *envelope, Parallel: *parallel, Bisector: bis, Observer: runObs}
	start := time.Now()
	var res *core.Result
	if *resumePath != "" {
		res, err = resume(*resumePath, flag.Arg(0), db)
		if err == nil {
			log.Info("resumed from saved snapshot", "patterns", len(res.Patterns), "path", *resumePath)
		}
	} else {
		res, err = core.MineContext(ctx, db, opts)
	}
	if err != nil {
		fatal(err)
	}
	for _, derr := range res.Degraded {
		log.Warn("unit degraded", "err", derr)
	}
	elapsed := time.Since(start)
	quality = &res.PartitionQuality

	if *savePath != "" && *updatedPath == "" {
		save(*savePath, res)
		log.Info("saved result", "path", *savePath)
	}

	if *updatedPath == "" {
		report(condenseSet(res.Patterns, *condense), elapsed, *showAll)
		log.Info("phase times", "partition", res.PartitionTime, "units", fmt.Sprint(res.UnitTimes), "merge", res.MergeTime)
		return
	}

	newDB := readDB(*updatedPath)
	var tids []int
	if *changed != "" {
		for _, s := range strings.Split(*changed, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -changed entry %q: %v", s, err))
			}
			tids = append(tids, id)
		}
	} else {
		// Derive the changed set by structural comparison.
		if len(newDB) != len(db) {
			fatal(fmt.Errorf("updated database has %d graphs; original %d", len(newDB), len(db)))
		}
		for i := range db {
			if !db[i].Equal(newDB[i]) {
				tids = append(tids, i)
			}
		}
	}
	start = time.Now()
	inc, err := core.IncMineContext(ctx, newDB, tids, res)
	if err != nil {
		fatal(err)
	}
	quality = &inc.PartitionQuality
	report(condenseSet(inc.Patterns, *condense), time.Since(start), *showAll)
	if *savePath != "" {
		save(*savePath, &inc.Result)
		log.Info("saved updated result", "path", *savePath)
	}
	log.Info("incremental run", "graphs_updated", len(tids), "k", *k)
	fmt.Fprintf(os.Stderr, "UF (unchanged frequent):    %d\n", len(inc.UF))
	fmt.Fprintf(os.Stderr, "FI (frequent->infrequent):  %d\n", len(inc.FI))
	fmt.Fprintf(os.Stderr, "IF (infrequent->frequent):  %d\n", len(inc.IF))
}

func readDB(path string) graph.Database {
	in := os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	db, err := graph.ReadDatabase(in)
	if err != nil {
		fatal(err)
	}
	return db
}

// save writes res with its database as a snapshot to path.
func save(path string, res *core.Result) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := core.SaveSnapshot(f, res); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// resume loads the snapshot at path and checks that the database it
// carries is db, read from dbPath: a result resumed against another
// database would fold the wrong baseline and answer wrongly.
func resume(path, dbPath string, db graph.Database) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	saved, res, err := core.LoadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	same := len(saved) == len(db)
	for i := 0; same && i < len(db); i++ {
		same = saved[i].Equal(db[i])
	}
	if !same {
		return nil, fmt.Errorf("%s was mined from another database than %s", path, cmp.Or(dbPath, "standard input"))
	}
	return res, nil
}

func absSupport(db graph.Database, v float64) int {
	if v >= 1 {
		return int(v)
	}
	return core.AbsoluteSupport(db, v)
}

// condenseSet applies the -condense flag.
func condenseSet(set pattern.Set, mode string) pattern.Set {
	switch mode {
	case "":
		return set
	case "closed":
		return set.Closed()
	case "maximal":
		return set.Maximal()
	default:
		fatal(fmt.Errorf("unknown -condense mode %q (want closed or maximal)", mode))
		return nil
	}
}

func report(set pattern.Set, elapsed time.Duration, showAll bool) {
	bySize := map[int]int{}
	maxSize := 0
	for _, p := range set {
		bySize[p.Size()]++
		if p.Size() > maxSize {
			maxSize = p.Size()
		}
	}
	fmt.Printf("%d frequent subgraphs in %v\n", len(set), elapsed)
	for s := 1; s <= maxSize; s++ {
		if bySize[s] > 0 {
			fmt.Printf("  %2d-edge patterns: %d\n", s, bySize[s])
		}
	}
	if showAll {
		keys := set.Keys()
		sort.Strings(keys)
		for _, k := range keys {
			p := set[k]
			fmt.Printf("%s support=%d\n", p.Code, p.Support)
		}
	}
}

// writeTrace renders the tracer's span tree as JSON to path; "-" means
// stdout.
func writeTrace(path string, t *obs.Tracer) error {
	if path == "-" {
		return t.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteJSON(f)
}

// writeStatsJSON renders the run's registry view to path; "-" means
// stdout.
func writeStatsJSON(path string, m obs.View) error {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partminer:", err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		os.Exit(130) // interrupted, shell-style
	}
	os.Exit(1)
}
