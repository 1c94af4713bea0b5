// Command benchrunner regenerates the paper's evaluation figures (§5) as
// printed tables. Each figure sweeps the same parameter axis as the paper
// on a scaled-down dataset; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	benchrunner -fig 14a            # one figure
//	benchrunner -fig all            # every figure
//	benchrunner -fig 16b -d50k 1200 # larger scale
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"partminer/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (13a 13b 14a 14b 15a 15b 16a 16b 17a 17b, or 'all')")
	d50k := flag.Int("d50k", bench.DefaultScale.D50k, "graphs standing in for the paper's 50k-graph datasets")
	d100k := flag.Int("d100k", bench.DefaultScale.D100k, "graphs standing in for the paper's 100k-graph datasets")
	maxEdges := flag.Int("maxedges", 0, "bound pattern size (0 = unbounded, the paper's setting); set when shrinking the scale far below the defaults")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	scale := bench.Scale{D50k: *d50k, D100k: *d100k, MaxEdges: *maxEdges}
	names := []string{*fig}
	if *fig == "all" {
		names = bench.Figures()
	}
	for _, name := range names {
		t, err := bench.Figure(name, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		t.Fprint(os.Stdout)
	}
}
