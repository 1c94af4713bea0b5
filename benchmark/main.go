// Command benchmark is the repository's one benchmark: four workloads over
// PartMiner (the library) and PartServe (the partserved / partworker
// binaries, driven over real HTTP), a fixed set of end-to-end metrics that
// every workload reports, and a traced in-process ladder that prices each
// layer separately. See README.md beside this file.
//
//	go run ./benchmark -seed 7                     every workload, end to end
//	go run ./benchmark -workload mine -seed 7      one workload
//	go run ./benchmark -trace 1                    the per-layer ladder; writes benchmark/out/trace.json
//	go run ./benchmark -repeat 5                   five sets: medians and spread against the bounds
//
// The last line of standard output is one JSON object per the contract in
// BENCHMARK.json; the lines before it read "workload metric value unit".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"partminer/internal/graph"
)

func main() {
	workload := flag.String("workload", "", "run one workload: mine, serve_read, serve_mixed, cluster_mixed (default: all four)")
	seed := flag.Int64("seed", 7, "traffic seed: query pools, request order, arrival times, update ops")
	dbSeed := flag.Int64("dbseed", 7, "database seed; fixed by default so runs with different -seed time the same database")
	seconds := flag.Float64("seconds", 24, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced in-process ladder (per-layer metrics) instead of the end-to-end run")
	smoke := flag.Bool("smoke", false, "tiny database, in-process server: exercises every code path in seconds, measures nothing")
	repeat := flag.Int("repeat", 0, "run this many full sets (seed, seed+1, ...) and print each metric's median and spread against its bound")
	flag.Parse()

	// Children die with the harness on every exit path: normal return and
	// panic through the deferred call, signals here, SIGKILL via Pdeathsig.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		reapAll()
		os.Exit(130)
	}()
	code := 0
	func() {
		defer reapAll()
		code = run(*workload, *seed, *dbSeed, *seconds, *trace == 1, *smoke, *repeat)
	}()
	os.Exit(code)
}

func run(workload string, seed, dbSeed int64, seconds float64, trace, smoke bool, repeat int) int {
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	sc := fullScale
	if smoke {
		sc = smokeScale
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}

	if trace {
		// The ladder is one in-process pass over every layer on the workloads'
		// shared database; the workload name only labels the lines.
		label := "ladder"
		if workload != "" {
			label = workload
		}
		rep, err := runLadder(label, seed, dbSeed, seconds, sc)
		if err != nil {
			return fail(err)
		}
		return emit(rep, perLayer)
	}

	boot := func(_ string, _ int, db graph.Database, workers int) (*target, error) {
		return bootInProcess(db, sc.minsup, workers, nil)
	}
	if !smoke {
		bin, err := buildBinaries()
		if err != nil {
			return fail(err)
		}
		boot = func(dir string, round int, _ graph.Database, workers int) (*target, error) {
			return bootProcesses(bin, dir, round, sc.minsup, workers)
		}
	}

	one := func(name string, seed int64) (*report, error) {
		dir, err := os.MkdirTemp(outDir, "run-"+name+"-")
		if err != nil {
			return nil, err
		}
		rep, err := runWorkload(config{workload: name, seed: seed, dbSeed: dbSeed, seconds: seconds, sc: sc, boot: boot, dir: dir, rounds: setupRounds})
		if err == nil && rep.failed == 0 {
			os.RemoveAll(dir) // child logs are kept only when something went wrong
		}
		return rep, err
	}

	if repeat > 0 {
		return runRepeat(names, seed, repeat, one)
	}
	code := 0
	for _, name := range names {
		rep, err := one(name, seed)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		if c := emit(rep, endToEnd); c != 0 {
			code = c
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// emit prints a report: one text line per metric, the problems on
// standard error, and last the JSON object with exactly the metrics of
// defs. A run with a wrong or failed operation exits non-zero.
func emit(rep *report, defs []metricDef) int {
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Printf("%s %s %v %s\n", rep.workload, name, m.Value, m.Unit)
	}
	fmt.Printf("%s fail_ratio %v ratio\n", rep.workload, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", rep.workload, p)
	}
	for _, why := range rep.invalid {
		fmt.Fprintf(os.Stderr, "benchmark: %s: INVALID RUN: %s\n", rep.workload, why)
	}
	fmt.Printf("%s valid %d bool\n", rep.workload, b2i(len(rep.invalid) == 0))

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		if !ok {
			return fail(fmt.Errorf("%s: metric %s was not measured", rep.workload, d.name))
		}
		out.Metrics[d.name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runRepeat runs sets of all workloads back to back, one seed per set as
// the driver does, and prints per workload and end-to-end metric the
// median, the spread (interquartile distance over median) and whether
// the spread is inside the bound BENCHMARK.json gives the metric.
func runRepeat(names []string, seed int64, sets int, one func(string, int64) (*report, error)) int {
	bounds, err := readBounds()
	if err != nil {
		return fail(err)
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per set
	code := 0
	for s := 0; s < sets; s++ {
		for _, name := range names {
			rep, err := one(name, seed+int64(s))
			if err != nil {
				return fail(fmt.Errorf("%s set %d: %w", name, s, err))
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %d %s: attempted %d failed %d invalid %v\n", s, name, rep.attempted, rep.failed, rep.invalid)
			if rep.failed > 0 {
				code = 1
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				values[name][d.name] = append(values[name][d.name], rep.metrics[d.name].Value)
				values[name]["raw_"+d.name] = append(values[name]["raw_"+d.name], rep.metrics["raw_"+d.name].Value)
			}
		}
	}
	fmt.Println("workload metric median unit spread bound inside spread_uncalibrated")
	for _, name := range names {
		for _, d := range endToEnd {
			xs := values[name][d.name]
			sp := spread(xs)
			fmt.Printf("%s %s %.6g %s %.4f %.2f %v %.4f %.4g\n", name, d.name, medianFloat(xs), d.unit, sp, bounds[d.name], sp <= bounds[d.name], spread(values[name]["raw_"+d.name]), xs)
		}
	}
	return code
}

// readBounds loads each end-to-end metric's bound from BENCHMARK.json.
func readBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
