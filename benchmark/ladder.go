package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/index"
	"partminer/internal/mergejoin"
	"partminer/internal/partition"
	"partminer/internal/pattern"
	"partminer/internal/query"
	"partminer/internal/server"
)

// perLayer is the traced run's output: <package>.<metric>, one entry per
// BENCHMARK.json per_layer metric. README.md says which end-to-end metric
// each should move.
var perLayer = []metricDef{
	{"graph.encode_ms", "ms"}, {"graph.decode_ms", "ms"}, {"graph.text_bytes", "bytes"},
	{"partition.time_ms", "ms"}, {"partition.edge_cut_ratio", "ratio"}, {"partition.replication_factor", "ratio"}, {"partition.unit_balance", "ratio"},
	{"gspan.wholedb_ms", "ms"}, {"gspan.alloc_mb", "MB"}, {"gspan.patterns", "count"},
	{"gaston.wholedb_ms", "ms"}, {"gaston.units_ms", "ms"}, {"gaston.unit_max_ms", "ms"}, {"gaston.unit_patterns", "count"}, {"gaston.useful_ratio", "ratio"}, {"gaston.alloc_mb", "MB"},
	{"index.build_ms", "ms"}, {"index.clone_ms", "ms"}, {"index.triples", "count"},
	{"mergejoin.time_ms", "ms"}, {"mergejoin.lowsup_time_ms", "ms"}, {"mergejoin.inc_time_ms", "ms"}, {"mergejoin.verify_ms", "ms"}, {"mergejoin.alloc_mb", "MB"},
	{"mergejoin.candidates", "count"}, {"mergejoin.frequent", "count"}, {"mergejoin.useful_ratio", "ratio"}, {"mergejoin.iso_tests", "count"},
	{"core.mine_ms", "ms"}, {"core.mine_pooled_ms", "ms"}, {"core.mine_lowsup_ms", "ms"}, {"core.self_ms", "ms"}, {"core.incmine_ms", "ms"}, {"core.inc_remined_unit_ratio", "ratio"}, {"core.ladder_x", "ratio"},
	{"core.snapshot_save_ms", "ms"}, {"core.snapshot_load_ms", "ms"}, {"core.snapshot_bytes", "bytes"},
	{"query.snapshot_build_ms", "ms"}, {"query.features", "count"}, {"plan.compile_ms", "ms"}, {"plan.count", "count"},
	{"query.find_planned_us", "us"}, {"query.find_adhoc_us", "us"}, {"query.find_cached_us", "us"},
	{"query.cache_hit_ratio", "ratio"}, {"plan.hit_ratio", "ratio"}, {"isomorph.vf2_fallbacks", "count"},
	{"server.apply_inc_ms", "ms"}, {"server.apply_full_ms", "ms"}, {"server.fold_self_ms", "ms"}, {"server.fold_queue_wait_ms", "ms"}, {"server.ops_per_fold", "ratio"},
	{"server.http_overhead_us", "us"}, {"server.read_p90_ms", "ms"}, {"server.read_p99_ms", "ms"}, {"server.read_p999_ms", "ms"}, {"server.read_in_fold_p90_ms", "ms"}, {"server.incr_p90_ms", "ms"},
	{"cluster.mine_ms", "ms"}, {"cluster.rpc_overhead_ms", "ms"}, {"cluster.ship_bytes_per_fold", "bytes"}, {"cluster.replicate_ms", "ms"}, {"cluster.warm_hit_ratio", "ratio"},
	{"cluster.local_mines", "count"}, {"cluster.worker_unit_mine_ms", "ms"}, {"cluster.replica_read_p50_ms", "ms"}, {"cluster.replica_epoch_lag", "count"},
	{"cluster.read_in_fold_p90_ms", "ms"},
	{"loadgen.sched_lag_p95_ms", "ms"}, {"loadgen.slice_overrun_max_ms", "ms"}, {"loadgen.sent", "count"}, {"loadgen.trace_overhead_ratio", "ratio"},
}

// Shares of a traced run's --seconds: the library rungs repeat until
// theirs is spent; each service workload then runs once, traced, in
// process.
const (
	ladderRungShare    = 0.33
	ladderServiceShare = 0.30 // five slices at the fixed update rate: the least that holds a full re-mine outside the closed loop
)

// samples collects one value per ladder repetition; the metric is the
// median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addMS(name string, d time.Duration) { s.add(name, ms(d)) }

// allocMB runs f and returns the megabytes it allocated.
func allocMB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// runLadder is the traced run. It calls each layer's exported entry
// point on the workloads' database with a span around every call —
// gSpan, Gaston, partition, the unit miners at sup/k, index, merge-join,
// PartMiner serial and pooled, IncPartMiner, snapshot build, persistence,
// the text codec, in-process server folds, an in-process fleet — passing
// its own observer through Options.Observer so the stages the program
// reports nest under the call that caused them. It then runs serve_mixed
// and cluster_mixed once each against an in-process server with the same
// observer on server.Config.Observer. Every mined set is compared with
// gSpan, so the ladder's floor is also its oracle.
func runLadder(label string, seed, dbSeed int64, seconds float64, sc scale) (*report, error) {
	rep := newReport(label)
	tr := newTracer()
	obs := newStageObserver(tr)
	ctx := context.Background()
	db := sc.database(dbSeed)
	minsup := absSupport(len(db), sc.minsup)
	unitSup := (minsup + unitsK - 1) / unitsK
	want := gspan.Mine(db, gspan.Options{MinSupport: minsup})
	rng := rand.New(rand.NewSource(seed))
	qs := buildQueries(rng, db, want, sc)
	sm := make(samples)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	same := func(what string, got pattern.Set, want pattern.Set) {
		diff := diffSets(got, want)
		rep.check(diff == "", "%s differs from gSpan: %s", what, diff)
	}

	rungEnd := time.Now().Add(time.Duration(ladderRungShare * seconds * float64(time.Second)))
	for run := 0; run < 2 || time.Now().Before(rungEnd); run++ {
		root := tr.begin("ladder", -1, run)
		// timed runs f inside a span under root, with the observer's stages
		// nested below it, and returns the call's duration.
		timed := func(name string, f func()) time.Duration {
			id := tr.begin(name, root, run)
			obs.under(id, run)
			f()
			return tr.end(id)
		}

		// Text codec.
		var text bytes.Buffer
		sm.addMS("graph.encode_ms", timed("graph.WriteDatabase", func() { note(graph.WriteDatabase(&text, db)) }))
		sm.add("graph.text_bytes", float64(text.Len()))
		sm.addMS("graph.decode_ms", timed("graph.ReadDatabase", func() {
			_, err := graph.ReadDatabase(bytes.NewReader(text.Bytes()))
			note(err)
		}))

		// The floor: whole-database miners.
		var set pattern.Set
		sm.add("gspan.alloc_mb", allocMB(func() {
			sm.addMS("gspan.wholedb_ms", timed("gspan.Mine", func() { set = gspan.Mine(db, gspan.Options{MinSupport: minsup}) }))
		}))
		sm.add("gspan.patterns", float64(len(set)))
		same("gspan.Mine", set, want)
		sm.addMS("gaston.wholedb_ms", timed("gaston.Mine", func() { set = gaston.Mine(db, gaston.Options{MinSupport: minsup}) }))
		same("gaston.Mine", set, want)

		// PartMiner's phases, called one by one.
		var tree *partition.Tree
		sm.addMS("partition.time_ms", timed("partition.DBPartition", func() {
			var err error
			tree, err = partition.DBPartition(db, unitsK, partition.Partition3)
			note(err)
		}))
		if firstErr != nil {
			return nil, firstErr
		}
		sm.add("partition.edge_cut_ratio", tree.Quality.EdgeCutRatio)
		sm.add("partition.replication_factor", tree.Quality.ReplicationFactor)
		sm.add("partition.unit_balance", tree.Quality.Balance)
		leaves := tree.Leaves()
		units := make([]pattern.Set, len(leaves))
		var unitsTotal, unitMax time.Duration
		unitPatterns := 0
		sm.add("gaston.alloc_mb", allocMB(func() {
			for i, leaf := range leaves {
				d := timed(fmt.Sprintf("gaston.MineContext unit.%d", i), func() {
					var err error
					units[i], err = gaston.MineContext(ctx, leaf.DB, gaston.Options{MinSupport: unitSup})
					note(err)
				})
				unitsTotal += d
				unitMax = max(unitMax, d)
				unitPatterns += len(units[i])
			}
		}))
		sm.addMS("gaston.units_ms", unitsTotal)
		sm.addMS("gaston.unit_max_ms", unitMax)
		sm.add("gaston.unit_patterns", float64(unitPatterns))
		sm.add("gaston.useful_ratio", float64(len(want))/float64(max(unitPatterns, 1)))

		var fx *index.FeatureIndex
		sm.addMS("index.build_ms", timed("index.Build", func() { fx = index.Build(db) }))
		sm.addMS("index.clone_ms", timed("index.Clone", func() { fx.Clone() }))
		sm.add("index.triples", float64(len(fx.FrequentEdges(1))))

		var mst mergejoin.Stats
		sm.add("mergejoin.alloc_mb", allocMB(func() {
			sm.addMS("mergejoin.time_ms", timed("mergejoin.MergeContext", func() {
				var err error
				set, err = mergejoin.MergeContext(ctx, tree.Root.DB, units[0], units[1],
					mergejoin.Config{MinSupport: minsup, Index: fx, Stats: &mst, Observer: obs})
				note(err)
			}))
		}))
		same("mergejoin.MergeContext", set, want)
		sm.addMS("mergejoin.verify_ms", obs.total("merge.verify"))
		sm.add("mergejoin.candidates", float64(mst.Candidates))
		sm.add("mergejoin.frequent", float64(mst.Frequent))
		sm.add("mergejoin.useful_ratio", float64(mst.Frequent)/float64(max(mst.Candidates, 1)))
		sm.add("mergejoin.iso_tests", float64(mst.IsoTests))

		// PartMiner as one call: untraced, traced, pooled, low support.
		opts := core.Options{MinSupport: minsup, K: unitsK}
		var res *core.Result
		mine := func(o core.Options) func() {
			return func() {
				var err error
				res, err = core.PartMiner(db, o)
				note(err)
			}
		}
		t0 := time.Now()
		mine(opts)()
		untraced := time.Since(t0)
		traced := opts
		traced.Observer = obs
		mineID := len(tr.spans)
		d := timed("core.PartMiner", mine(traced))
		sm.addMS("core.mine_ms", d)
		sm.add("loadgen.trace_overhead_ratio", float64(d)/float64(untraced))
		same("core.PartMiner", res.Patterns, want)
		base := res
		pooled := traced
		pooled.Parallel = true
		sm.addMS("core.mine_pooled_ms", timed("core.PartMiner pooled", mine(pooled)))
		same("core.PartMiner pooled", res.Patterns, want)
		low := traced
		low.MinSupport = max(minsup/2, 1)
		sm.addMS("core.mine_lowsup_ms", timed("core.PartMiner lowsup", mine(low)))
		sm.addMS("mergejoin.lowsup_time_ms", obs.total("merge"))
		same("core.PartMiner lowsup", res.Patterns, gspan.Mine(db, gspan.Options{MinSupport: low.MinSupport}))
		if firstErr != nil {
			return nil, firstErr
		}

		// IncPartMiner after a 10 % update round.
		updated := db.Clone()
		tids := datagen.ApplyUpdates(updated, datagen.UpdateConfig{Fraction: 0.1, Seed: seed + int64(run)})
		prev := *base
		prev.Index = base.Index.Clone()
		var inc *core.IncResult
		sm.addMS("core.incmine_ms", timed("core.IncMineContext", func() {
			var err error
			inc, err = core.IncMineContext(ctx, updated, tids, &prev)
			note(err)
		}))
		if firstErr != nil {
			return nil, firstErr
		}
		sm.addMS("mergejoin.inc_time_ms", obs.total("merge"))
		sm.add("core.inc_remined_unit_ratio", float64(len(inc.ReminedUnits))/unitsK)
		same("core.IncMineContext", inc.Patterns, gspan.Mine(updated, gspan.Options{MinSupport: minsup}))

		// Snapshot build, with and without plan compilation.
		var search *query.Index
		build := timed("query.IndexFromPatterns", func() {
			search = query.IndexFromPatterns(db, base.Index, base.Patterns, query.IndexOptions{})
		})
		noPlans := timed("query.IndexFromPatterns no plans", func() {
			query.IndexFromPatterns(db, base.Index, base.Patterns, query.IndexOptions{PlanMaxEdges: -1})
		})
		sm.addMS("query.snapshot_build_ms", build)
		sm.addMS("plan.compile_ms", max(build-noPlans, 0))
		sm.add("query.features", float64(search.FeatureCount()))
		sm.add("plan.count", float64(search.PlanCount()))

		// Persistence.
		var snapText bytes.Buffer
		sm.addMS("core.snapshot_save_ms", timed("core.SaveSnapshot", func() { note(core.SaveSnapshot(&snapText, base.Portable())) }))
		sm.add("core.snapshot_bytes", float64(snapText.Len()))
		sm.addMS("core.snapshot_load_ms", timed("core.LoadSnapshot", func() {
			_, _, err := core.LoadSnapshot(bytes.NewReader(snapText.Bytes()))
			note(err)
		}))

		// The three read paths, per call: plan hit, generic miss, cache hit.
		per := func(name string, ids []int) float64 {
			d := timed(name, func() {
				for _, id := range ids {
					search.Find(qs.graphs[id])
				}
			})
			return float64(d) / float64(time.Microsecond) / float64(len(ids))
		}
		planned, adhoc := make([]int, qs.planned), make([]int, min(qs.adhoc(), 256))
		for i := range planned {
			planned[i] = i
		}
		for i := range adhoc {
			adhoc[i] = qs.planned + i
		}
		sm.add("query.find_planned_us", per("query.Find planned", planned))
		sm.add("query.find_adhoc_us", per("query.Find adhoc", adhoc))
		sm.add("query.find_cached_us", per("query.Find cached", adhoc))

		// In-process folds: server.Apply with nothing lingering.
		var srv *server.Server
		timed("server.Start", func() {
			var err error
			srv, err = server.Start(ctx, db, server.Config{Mine: opts, BatchWindow: -1, Observer: obs})
			note(err)
		})
		if firstErr != nil {
			return nil, firstErr
		}
		model := append(graph.Database(nil), db...)
		for _, u := range genUpdates(rng, &model, 4, 4, sc.gen.N) {
			name, metric := "server.Apply in-place", "server.apply_inc_ms"
			if u.full {
				name, metric = "server.Apply add_graph", "server.apply_full_ms"
			}
			d := timed(name, func() {
				_, err := srv.Apply(ctx, u.ops)
				note(err)
			})
			sm.addMS(metric, d)
			if !u.full {
				// What the fold adds around mining and the snapshot build.
				mining := obs.total("partition") + obs.total("units") + obs.total("merge")
				sm.addMS("server.fold_self_ms", max(d-mining-build, 0))
			}
		}
		same("server.Apply", srv.Snapshot().Res.Patterns, gspan.Mine(model, gspan.Options{MinSupport: minsup}))
		srv.Close()

		tr.end(root)
		// core.self_ms: the traced PartMiner call minus every stage it reported.
		sm.addMS("core.self_ms", selfTimes(tr.spans)[mineID])
		if firstErr != nil {
			return nil, firstErr
		}
	}
	sm.add("core.ladder_x", medianFloat(sm["core.mine_ms"])/medianFloat(sm["gspan.wholedb_ms"]))

	if err := ladderCluster(ctx, rep, tr, obs, sm, db, minsup, seed, qs); err != nil {
		return nil, err
	}
	if err := ladderServices(rep, tr, obs, sm, seed, dbSeed, seconds, sc); err != nil {
		return nil, err
	}

	for _, d := range perLayer {
		xs, ok := sm[d.name]
		if !ok {
			return nil, fmt.Errorf("ladder: %s was not measured", d.name)
		}
		rep.set(d.name, medianFloat(xs), d.unit)
	}
	return rep, tr.write(filepath.Join(outDir, "trace.json"))
}

// ladderCluster prices the cluster layer alone: PartMiner with unit
// mining sharded over an in-process coordinator and two loopback
// workers, then replication and a replica read, each called directly.
func ladderCluster(ctx context.Context, rep *report, tr *tracer, obs *stageObserver, sm samples,
	db graph.Database, minsup int, seed int64, qs *queries) error {
	fl, err := startFleet(2)
	if err != nil {
		return err
	}
	defer fl.close()
	fl.coord.SetObserver(obs)
	local := core.Options{MinSupport: minsup, K: unitsK}
	sharded := local
	sharded.UnitMinerIndexed, sharded.Observer = fl.coord.MineUnit, obs
	var res *core.Result
	for run := 0; run < 4; run++ {
		// A fresh 10 % update round per repetition: both units change, so the
		// workers mine them instead of answering from their warm cache, as in
		// a fold. The same database is mined locally for the paired difference.
		updated := db.Clone()
		datagen.ApplyUpdates(updated, datagen.UpdateConfig{Fraction: 0.1, Seed: seed + int64(run)})
		t0 := time.Now()
		ref, err := core.PartMiner(updated, local)
		if err != nil {
			return err
		}
		alone := time.Since(t0)
		id := tr.begin("core.PartMiner cluster", -1, run)
		obs.under(id, run)
		if res, err = core.PartMiner(updated, sharded); err != nil {
			return err
		}
		d := tr.end(id)
		sm.addMS("cluster.mine_ms", d)
		sm.addMS("cluster.rpc_overhead_ms", d-alone)
		diff := diffSets(res.Patterns, ref.Patterns)
		rep.check(diff == "" && len(res.Degraded) == 0, "cluster mine: degraded %v, %s", res.Degraded, diff)
	}

	var text bytes.Buffer
	if err := core.SaveSnapshot(&text, res.Portable()); err != nil {
		return err
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		id := tr.begin("cluster.Replicate", -1, int(epoch))
		obs.under(id, int(epoch))
		if err := fl.coord.Replicate(ctx, text.Bytes(), epoch); err != nil {
			return err
		}
		sm.addMS("cluster.replicate_ms", tr.end(id))
	}
	var reads []time.Duration
	id := tr.begin("cluster.ReadContains", -1, 0)
	obs.under(id, 0)
	for q := 0; q < min(qs.planned, 200); q++ {
		t0 := time.Now()
		reply, err := fl.coord.ReadContains(ctx, []byte(queryText(qs.graphs[q])))
		if err != nil {
			return err
		}
		reads = append(reads, time.Since(t0))
		want := len(query.Scan(res.Tree.Root.DB, qs.graphs[q]))
		rep.check(reply.Support == want, "replica read of query %d: support %d, want %d", q, reply.Support, want)
	}
	tr.end(id)
	sm.addMS("cluster.replica_read_p50_ms", percentile(sortedCopy(reads), 50))
	return nil
}

// ladderServices runs the two mixed workloads once each, traced: the same
// traffic and the same checks as the end-to-end run, against a server
// inside this process with the harness observer attached. The metrics
// that need a server and a load generator come from here.
func ladderServices(rep *report, tr *tracer, obs *stageObserver, sm samples, seed, dbSeed int64, seconds float64, sc scale) error {
	dir, err := os.MkdirTemp(outDir, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, workers := range []int{0, 2} {
		name := wlServeMixed
		if workers > 0 {
			name = wlClusterMixed
		}
		id := tr.begin("workload "+name, -1, 0)
		obs.under(id, 0)
		boot := func(_ string, _ int, db graph.Database, workers int) (*target, error) {
			return bootInProcess(db, sc.minsup, workers, obs)
		}
		r, err := runService(config{workload: name, seed: seed, dbSeed: dbSeed, seconds: ladderServiceShare * seconds,
			sc: sc, boot: boot, dir: dir, rounds: 1}, true, workers)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("traced %s: %w", name, err)
		}
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.problems = append(rep.problems, r.problems...)
		get := func(metric string) float64 { return r.metrics[metric].Value }
		if workers == 0 {
			sm.add("query.cache_hit_ratio", get("cache_hit_ratio"))
			sm.add("plan.hit_ratio", get("plan_hit_ratio"))
			sm.add("isomorph.vf2_fallbacks", get("vf2_fallbacks"))
			sm.add("server.fold_queue_wait_ms", get("fold_queue_wait_ms"))
			sm.add("server.ops_per_fold", get("ops_per_fold"))
			sm.add("server.http_overhead_us", get("contains_planned_p50_ms")*1000-medianFloat(sm["query.find_planned_us"]))
			sm.add("server.read_p90_ms", get("read_p90_ms"))
			sm.add("server.read_p99_ms", get("read_p99_ms"))
			sm.add("server.read_p999_ms", get("read_p99.9_ms"))
			sm.add("server.read_in_fold_p90_ms", get("read_in_fold_p90_ms"))
			sm.add("server.incr_p90_ms", get("incr_p90_ms"))
			sm.add("loadgen.sched_lag_p95_ms", get("sched_lag_p95_ms"))
			sm.add("loadgen.slice_overrun_max_ms", get("slice_overrun_max_ms"))
			sm.add("loadgen.sent", get("sent"))
			continue
		}
		folds := max(get("incr_samples")+get("remine_samples"), 1)
		sm.add("cluster.ship_bytes_per_fold", get("cluster_ship_mb")*(1<<20)/folds)
		sm.add("cluster.warm_hit_ratio", get("cluster_warm_hits")/max(get("cluster_mined"), 1))
		sm.add("cluster.local_mines", get("cluster_local_mines"))
		sm.add("cluster.worker_unit_mine_ms", get("cluster_worker_unit_mine_ms"))
		sm.add("cluster.replica_epoch_lag", get("replica_epoch_lag"))
		sm.add("cluster.read_in_fold_p90_ms", get("read_in_fold_p90_ms"))
	}
	return nil
}
