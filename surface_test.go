package partminer

import (
	"context"
	"encoding/json"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"partminer/internal/bench"
	"partminer/internal/cluster"
	"partminer/internal/core"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/mergejoin"
	"partminer/internal/partition"
	"partminer/internal/query"
	"partminer/internal/server"
)

// surface is the inventory ROADMAP item 15 asks for: every independently
// settable value of the mining path — option fields, `partminer -miner`
// values, benchrunner figures, registered partition strategies — and of
// the serving path — server, containment-index, coordinator and worker
// config fields — with
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
	"core.Options.MaxEdges":         "TestStrategyDifferential50Seeds TestCLIEndToEnd",
	"core.Options.GrowthEnvelope":   "TestDecompDifferential50Seeds TestBorderChainedDifferential50Seeds BenchmarkDecompMine",
	"core.Options.UnitMinerIndexed": "rung:cluster_mixed rung:cluster.mine_ms TestClusterMineDifferential50Seeds TestDegradedUnitReported examples/distributed",
	"core.Options.Observer":         "rung:core.self_ms TestTraceSpanTreeCoversPhases scripts/obs_smoke.sh",

	"mergejoin.Config.MinSupport": "rung:mergejoin.time_ms TestMergeRecoversTheorem3",
	"mergejoin.Config.MaxEdges":   "TestMergeRecoversTheorem3 TestMergeUnbounded",
	"mergejoin.Config.Old":        "rung:mergejoin.inc_time_ms TestBorderChainedDifferential50Seeds",
	"mergejoin.Config.Updated":    "rung:mergejoin.inc_time_ms TestBorderChainedDifferential50Seeds",
	"mergejoin.Config.OldBorder":  "rung:mergejoin.inc_time_ms TestBorderCarry TestRestoredResultFoldsWithoutBorder",
	"mergejoin.Config.Border":     "TestBorderEveryRejectionRecorded",
	"mergejoin.Config.Index":      "rung:mergejoin.time_ms TestPartMinerIndexPruning",
	"mergejoin.Config.SubKeys":    "TestSubKeyCacheSurvivesOverflow",
	"mergejoin.Config.Observer":   "rung:mergejoin.verify_ms TestStatsCountersMatchObserver",
	"mergejoin.Config.Stats":      "rung:mergejoin.candidates TestMergeStatsAccumulate",

	"gaston.Options.MinSupport": "rung:gaston.units_ms TestDifferentialSharedPrefixEmbeddings",
	"gaston.Options.MaxEdges":   "TestDifferentialSharedPrefixEmbeddings",
	"gspan.Options.MinSupport":  "rung:gspan.wholedb_ms TestDifferentialSharedPrefixEmbeddings",
	"gspan.Options.MaxEdges":    "TestDifferentialSharedPrefixEmbeddings",

	"server.Config.Mine":          "rung:serve_mixed TestApplyDifferential",
	"server.Config.BatchWindow":   "rung:serve_mixed TestApplyDifferential",
	"server.Config.MaxBatch":      "rung:serve_mixed rung:server.ops_per_fold",
	"server.Config.QueueDepth":    "rung:serve_mixed TestConcurrentReadsDuringSwaps",
	"server.Config.OnSwap":        "TestConcurrentReadsDuringSwaps TestCacheConsistentDuringSwaps scripts/serve_smoke.sh",
	"server.Config.Observer":      "TestViewsAgree",
	"server.Config.Logger":        "scripts/serve_smoke.sh scripts/obs_smoke.sh",
	"server.Config.SlowThreshold": "TestStatsDigestsAndSlowJournal scripts/obs_smoke.sh",
	"server.Config.SlowLogSize":   "TestStatsDigestsAndSlowJournal",
	"server.Config.Cluster":       "rung:cluster_mixed TestServerClusterMode scripts/cluster_smoke.sh",

	"query.IndexOptions.PlanMaxEdges": "rung:plan.compile_ms TestPlansDisabled",
	"query.IndexOptions.CacheSize":    "rung:query.cache_hit_ratio TestAdHocCache TestAdHocFindAllocs",
	"query.IndexOptions.Observer":     "rung:plan.hit_ratio TestPlanHitServesMinedTIDs",

	"cluster.Config.Replicas":          "rung:cluster.replicate_ms TestClusterReplication scripts/cluster_smoke.sh",
	"cluster.Config.HeartbeatInterval": "TestClusterHeartbeatDeathReroutes scripts/cluster_smoke.sh",
	"cluster.Config.MaxMissed":         "TestClusterHeartbeatDeathReroutes scripts/cluster_smoke.sh",
	"cluster.Worker.ID":                "rung:cluster_mixed TestClusterHeartbeatDeathReroutes scripts/cluster_smoke.sh",
	"cluster.Worker.Advertise":         "TestClusterMineDifferential50Seeds scripts/cluster_smoke.sh",
	"cluster.Worker.Heartbeat":         "TestClusterHeartbeatFederatesMetrics scripts/cluster_smoke.sh",

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

	// Which strategies stay is ROADMAP item 15's open half; it waits on
	// item 13's measurement.
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
		"core.Options":       reflect.TypeOf(core.Options{}),
		"mergejoin.Config":   reflect.TypeOf(mergejoin.Config{}),
		"gaston.Options":     reflect.TypeOf(gaston.Options{}),
		"gspan.Options":      reflect.TypeOf(gspan.Options{}),
		"server.Config":      reflect.TypeOf(server.Config{}),
		"query.IndexOptions": reflect.TypeOf(query.IndexOptions{}),
		"cluster.Config":     reflect.TypeOf(cluster.Config{}),
		"cluster.Worker":     reflect.TypeOf((*cluster.Worker)(nil)).Elem(),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, prefix+"."+f.Name)
			}
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

// goFlags are the go command's own flags the documents cite (`go test
// -race`, `go test -bench`, …); they belong to no binary of the module.
var goFlags = []string{"race", "bench", "benchtime", "benchmem", "run", "count", "cover", "fuzz", "fuzztime"}

// binaryFlags builds every command of the module and returns the union of
// the flags their -h output lists.
func binaryFlags(t *testing.T) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	pkgs := []string{"./cmd/partminer", "./cmd/partserved", "./cmd/partworker", "./cmd/datagen", "./cmd/benchrunner", "./benchmark"}
	if out, err := exec.Command("go", append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	decl := regexp.MustCompile(`(?m)^\s+-([A-Za-z][\w.-]*)`)
	flags := make(map[string]bool)
	for _, pkg := range pkgs {
		bin := filepath.Join(dir, filepath.Base(pkg))
		help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2
		found := decl.FindAllSubmatch(help, -1)
		if len(found) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", pkg, help)
		}
		for _, m := range found {
			flags[string(m[1])] = true
		}
	}
	return flags
}

// routeServed reports whether partserved's handler serves path. The
// probe uses a method no route declares: Go's ServeMux answers 405 for a
// path it serves under another method and 404 for a path it does not
// serve, and no handler runs either way.
func routeServed(h http.Handler, path string) bool {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodOptions, path, nil))
	return rec.Code != http.StatusNotFound
}

// servedFamilies starts a server in coordinator mode over one in-process
// worker (dialed by address, as partminer.DialWorkers does), so the
// cluster families register beside the single-node ones. It mines a tiny
// database, serves one planned and one ad-hoc read, folds one update,
// and returns the server's HTTP handler and the metric families its
// /metrics then lists, by name.
func servedFamilies(t *testing.T) (http.Handler, map[string]bool) {
	t.Helper()
	w := cluster.NewWorker("docs")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(l) //nolint:errcheck // returns when the listener closes
	t.Cleanup(func() { w.Close(); l.Close() })
	coord, err := cluster.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	db := graph.RandomDatabase(rand.New(rand.NewSource(1)), 4, 5, 6, 3, 2)
	srv, err := server.Start(context.Background(), db, server.Config{
		Mine: core.Options{MinSupport: 2, MaxEdges: 2}, BatchWindow: -1, Cluster: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	var planned string
	for _, p := range srv.Snapshot().Res.Patterns {
		planned = graph.Format(p.Code.Graph())
		break
	}
	adhoc := "t # 0\nv 0 9\nv 1 9\ne 0 1 0\n"
	update := `{"ops":[{"op":"relabel_vertex","tid":0,"u":0,"label":2}]}`
	for _, req := range [][2]string{{"/v1/contains", planned}, {"/v1/contains", adhoc}, {"/v1/update", update}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req[0], strings.NewReader(req[1])))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", req[0], rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	families := make(map[string]bool)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	return h, families
}

// workerFamilies returns the metric families a worker registers, by
// name.
func workerFamilies() map[string]bool {
	families := make(map[string]bool)
	for _, s := range cluster.NewWorker("docs").Registry().Gather() {
		families[s.Name] = true
	}
	return families
}

// TestDocsNameRealThings keeps the present-tense documents from citing
// what a change deleted: every internal/<pkg> path they mention must be
// in the tree, every Options.<Name> must be a field or method of
// core.Options (or of the miner whose package qualifies it), every
// -flag inside an inline `code span` must be a flag of one of the
// module's binaries or of the go command, every partworker_* metric
// family, or its federated partserve_worker_* name, must be one a worker
// registers, every other partserve_* family one a server that has mined,
// read and folded exposes (a name ending in _ is a prefix, and exempt),
// and every /v1/<path> must be a route partserved serves.
func TestDocsNameRealThings(t *testing.T) {
	flags := binaryFlags(t)
	for _, f := range goFlags {
		flags[f] = true
	}
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`[^`\n]+`")
	flagRef := regexp.MustCompile(`(?:^|[\s` + "`" + `])--?([A-Za-z][\w.-]*)`)
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
	workerMetric := regexp.MustCompile(`\bpart(?:worker|serve_worker)_([a-z0-9_]*[a-z0-9])`)
	histSeries := regexp.MustCompile(`_(?:bucket|sum|count)$`)
	families := workerFamilies()
	serveMetric := regexp.MustCompile(`\bpartserve_[a-z0-9_]+`)
	route := regexp.MustCompile(`/v1/[a-z0-9_/]*[a-z0-9_]`)
	handler, served := servedFamilies(t)
	if routeServed(handler, "/v1/no_such_route") {
		t.Fatal("route probe does not tell an unserved path from a served one")
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(fence.ReplaceAllString(string(text), ""), -1) {
			for _, m := range flagRef.FindAllStringSubmatch(code, -1) {
				if !flags[m[1]] {
					t.Errorf("%s cites %s, which no binary of the module has", doc, code)
				}
			}
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
		for _, m := range workerMetric.FindAllStringSubmatch(string(text), -1) {
			fam := "partworker_" + m[1]
			if !families[fam] && !families[histSeries.ReplaceAllString(fam, "")] {
				t.Errorf("%s cites %s, which no worker registers", doc, m[0])
			}
		}
		for _, fam := range serveMetric.FindAllString(string(text), -1) {
			if strings.HasPrefix(fam, "partserve_worker_") || strings.HasSuffix(fam, "_") {
				continue
			}
			if !served[fam] && !served[histSeries.ReplaceAllString(fam, "")] {
				t.Errorf("%s cites %s, which partserved does not expose", doc, fam)
			}
		}
		for _, p := range route.FindAllString(string(text), -1) {
			if !routeServed(handler, p) {
				t.Errorf("%s cites %s, which partserved does not serve", doc, p)
			}
		}
	}
}
