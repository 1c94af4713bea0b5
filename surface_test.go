package partminer

import (
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"partminer/internal/bench"
	"partminer/internal/core"
	"partminer/internal/gaston"
	"partminer/internal/gspan"
	"partminer/internal/mergejoin"
	"partminer/internal/partition"
)

// surface is the inventory ROADMAP item 9 asks for: every independently
// settable value of the mining path — option fields, `partminer -miner`
// values, benchrunner figures, registered partition strategies — with
// what exercises it. An entry names at least one of: a test or benchmark
// function, "fig:<name>" (a benchrunner figure, i.e. a paper figure),
// "rung:<name>" (a BENCHMARK.json workload or metric), or a path in the
// repository (a script or an example). TestOptionSurface fails when a
// value has no row, a row has no value, or a row's evidence is gone: a
// new knob arrives with its reason or not at all.
var surface = map[string]string{
	"core.Options.MinSupport":       "fig:14a fig:14b rung:mine",
	"core.Options.K":                "fig:15a fig:15b TestPartMinerEqualsGSpan",
	"core.Options.Bisector":         "fig:13a fig:13b TestStrategyDifferential50Seeds scripts/part_smoke.sh",
	"core.Options.Parallel":         "fig:15a rung:core.mine_pooled_ms TestPartMinerParallelEqualsSerial",
	"core.Options.Workers":          "TestStrategyDifferentialParallel TestBorderChainedDifferential50Seeds",
	"core.Options.MaxEdges":         "TestStrategyDifferential50Seeds TestCLIEndToEnd",
	"core.Options.GrowthEnvelope":   "TestDecompDifferential50Seeds TestBorderChainedDifferential50Seeds BenchmarkDecompMine",
	"core.Options.UnitCosts":        "rung:serve_mixed TestCostProfileSeededAndFedForward TestScheduleOrderDoesNotChangeResults",
	"core.Options.UnitMinerIndexed": "rung:cluster_mixed rung:cluster.mine_ms TestClusterMineDifferential50Seeds examples/distributed",
	"core.Options.Observer":         "rung:core.self_ms TestTraceSpanTreeCoversPhases scripts/obs_smoke.sh",

	"mergejoin.Config.MinSupport": "rung:mergejoin.time_ms TestMergeRecoversTheorem3",
	"mergejoin.Config.MaxEdges":   "TestMergeRecoversTheorem3 TestMergeUnbounded",
	"mergejoin.Config.Old":        "rung:mergejoin.inc_time_ms TestBorderChainedDifferential50Seeds",
	"mergejoin.Config.Updated":    "rung:mergejoin.inc_time_ms TestBorderChainedDifferential50Seeds",
	"mergejoin.Config.OldBorder":  "rung:mergejoin.inc_time_ms TestBorderCarry TestRestoredResultFoldsWithoutBorder",
	"mergejoin.Config.Border":     "TestBorderEveryRejectionRecorded",
	"mergejoin.Config.Index":      "rung:mergejoin.time_ms TestPartMinerIndexPruning",
	"mergejoin.Config.Pool":       "rung:core.mine_pooled_ms TestMergeParallelWorkersEqualSerial",
	"mergejoin.Config.SubKeys":    "TestSubKeyCacheSurvivesOverflow",
	"mergejoin.Config.Observer":   "rung:mergejoin.verify_ms TestStatsCountersMatchObserver",
	"mergejoin.Config.Stats":      "rung:mergejoin.candidates TestMergeStatsAccumulate",

	"gaston.Options.MinSupport": "rung:gaston.units_ms TestDifferentialSharedPrefixEmbeddings",
	"gaston.Options.MaxEdges":   "TestDifferentialSharedPrefixEmbeddings",
	"gaston.Options.Index":      "TestDifferentialSharedPrefixEmbeddings",
	"gspan.Options.MinSupport":  "rung:gspan.wholedb_ms TestDifferentialSharedPrefixEmbeddings",
	"gspan.Options.MaxEdges":    "TestDifferentialSharedPrefixEmbeddings",
	"gspan.Options.Index":       "TestDifferentialSharedPrefixEmbeddings",

	"-miner partminer": "rung:mine TestCLIEndToEnd",
	"-miner gaston":    "rung:gaston.wholedb_ms TestAllMinersAgreeOnGeneratedWorkload",
	"-miner gspan":     "rung:gspan.wholedb_ms TestCLIEndToEnd",
	"-miner adimine":   "fig:14a TestCLIEndToEnd",

	"figure 13a": "BenchmarkFig13aPartitionCriteriaStatic",
	"figure 13b": "BenchmarkFig13bPartitionCriteriaDynamic",
	"figure 14a": "BenchmarkFig14aMinSupStatic",
	"figure 14b": "BenchmarkFig14bMinSupDynamic",
	"figure 15a": "BenchmarkFig15aUnitsStatic",
	"figure 15b": "BenchmarkFig15bUnitsDynamic",
	"figure 16a": "BenchmarkFig16aVaryT TestFigureTablesRender TestCLIEndToEnd",
	"figure 16b": "BenchmarkFig16bVaryD",
	"figure 17a": "BenchmarkFig17aRelabelUpdates TestFigureTablesRender",
	"figure 17b": "BenchmarkFig17bStructuralUpdates",

	// Which strategies stay is ROADMAP item 9's open half; it waits on
	// item 8's measurement.
	"strategy partition1": "fig:13a fig:13b TestStrategyDifferential50Seeds",
	"strategy partition2": "fig:13a fig:13b TestStrategyDifferential50Seeds",
	"strategy partition3": "fig:13a rung:partition.time_ms TestStrategyDifferential50Seeds",
	"strategy metis":      "fig:13a fig:13b TestStrategyDifferential50Seeds",
	"strategy vertexcut":  "TestStrategyDifferential50Seeds scripts/part_smoke.sh",
	"strategy community":  "TestStrategyDifferential50Seeds scripts/part_smoke.sh",
	"strategy bfs":        "TestStrategyDifferential50Seeds scripts/part_smoke.sh",
}

func TestOptionSurface(t *testing.T) {
	var names []string
	for prefix, typ := range map[string]reflect.Type{
		"core.Options":     reflect.TypeOf(core.Options{}),
		"mergejoin.Config": reflect.TypeOf(mergejoin.Config{}),
		"gaston.Options":   reflect.TypeOf(gaston.Options{}),
		"gspan.Options":    reflect.TypeOf(gspan.Options{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, prefix+"."+typ.Field(i).Name)
		}
	}
	// The -miner values are what the binary says they are.
	help, _ := exec.Command("go", "run", "./cmd/partminer", "-h").CombinedOutput()
	m := regexp.MustCompile(`algorithm: ([a-z, ]+) \(default`).FindSubmatch(help)
	if m == nil {
		t.Fatalf("partminer -h does not list the -miner values:\n%s", help)
	}
	for _, v := range strings.Split(string(m[1]), ", ") {
		names = append(names, "-miner "+v)
	}
	for _, f := range bench.Figures() {
		names = append(names, "figure "+f)
	}
	for _, s := range partition.Names() {
		names = append(names, "strategy "+s)
	}

	rungs, funcs := benchmarkRungs(t), testFuncs(t)
	seen := make(map[string]bool)
	for _, name := range names {
		seen[name] = true
		evidence := strings.Fields(surface[name])
		if len(evidence) == 0 {
			t.Errorf("%s has no row in the surface table: name the figure, benchmark rung, differential or script that exercises it", name)
		}
		for _, e := range evidence {
			ok := funcs[e]
			if fig, is := strings.CutPrefix(e, "fig:"); is {
				ok = slices.Contains(bench.Figures(), fig)
			} else if rung, is := strings.CutPrefix(e, "rung:"); is {
				ok = rungs[rung]
			} else if strings.Contains(e, "/") {
				_, err := os.Stat(e)
				ok = err == nil
			}
			if !ok {
				t.Errorf("%s: evidence %q does not exist", name, e)
			}
		}
	}
	for name := range surface {
		if !seen[name] {
			t.Errorf("surface table row %q names nothing that exists; delete it", name)
		}
	}
}

// benchmarkRungs returns the workload and metric names of BENCHMARK.json.
func benchmarkRungs(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	rungs := make(map[string]bool)
	for _, section := range []string{"workloads", "end_to_end", "per_layer"} {
		var rows []struct{ Name string }
		if err := json.Unmarshal(decl[section], &rows); err != nil {
			t.Fatalf("BENCHMARK.json %s: %v", section, err)
		}
		for _, r := range rows {
			rungs[r.Name] = true
		}
	}
	return rungs
}

// testFuncs returns the name of every Test and Benchmark function in the
// module.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	funcs := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsNameRealThings keeps the present-tense documents from citing
// what a change deleted: every internal/<pkg> path they mention must be
// in the tree, and every Options.<Name> must be a field or method of
// core.Options (or of the miner whose package qualifies it).
func TestDocsNameRealThings(t *testing.T) {
	options := map[string]reflect.Type{
		"":          reflect.TypeOf(core.Options{}),
		"core":      reflect.TypeOf(core.Options{}),
		"partminer": reflect.TypeOf(core.Options{}),
		"gaston":    reflect.TypeOf(gaston.Options{}),
		"gspan":     reflect.TypeOf(gspan.Options{}),
	}
	raw, err := os.ReadFile("internal/core/partminer.go")
	if err != nil {
		t.Fatal(err)
	}
	coreSrc := string(raw)
	pkgPath := regexp.MustCompile(`\binternal/[a-z0-9_]+`)
	optField := regexp.MustCompile(`(?:\b(\w+)\.)?\bOptions\.(\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgPath.FindAllString(string(text), -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s cites %s, which is not in the tree", doc, p)
			}
		}
		for _, m := range optField.FindAllStringSubmatch(string(text), -1) {
			typ, known := options[m[1]]
			if !known {
				continue
			}
			_, isField := typ.FieldByName(m[2])
			isMethod := typ == options["core"] && (strings.Contains(coreSrc, "func (o Options) "+m[2]+"(") ||
				strings.Contains(coreSrc, "func (o *Options) "+m[2]+"("))
			if !isField && !isMethod {
				t.Errorf("%s cites %s, which %s does not have", doc, m[0], typ)
			}
		}
	}
}
