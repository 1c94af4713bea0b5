package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"partminer"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/pattern"
	"partminer/internal/query"
	"partminer/internal/server"
)

// The four workloads. Every one reports every end-to-end metric: a
// metric names an operation as its caller sees it, and the caller is a
// library user on `mine` and an HTTP client on the other three.
const (
	wlMine         = "mine"
	wlServeRead    = "serve_read"
	wlServeMixed   = "serve_mixed"
	wlClusterMixed = "cluster_mixed"
)

var workloadNames = []string{wlMine, wlServeRead, wlServeMixed, wlClusterMixed}

// metricDef is one metric's name and unit; BENCHMARK.json carries the
// same lists with direction and bound, and a test keeps the two equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},         // until the system can take its first operation
	{"remine_ms", "ms"},      // a from-scratch mine: partminer.Mine, or an add_graph /v1/update (trimmed mean)
	{"incr_ms", "ms"},        // an incremental update: MineIncremental, or an in-place /v1/update (trimmed mean)
	{"planned_p50_ms", "ms"}, // contains_planned reads with no update in flight, open loop (closed loop on mine)
	{"adhoc_p50_ms", "ms"},   // contains_adhoc reads, likewise
	{"read_rps_max", "1/s"},  // reads of the whole mix completed per second in the closed-loop phase
	{"mem_mb", "MB"},         // mine: allocated per Mine; otherwise summed peak RSS of server and workers
}

// How a run's --seconds are divided. The fold tail of serve_read is a
// fixed number of operations, not a time slice; its share is an estimate.
const (
	setupRounds = 5 // boots per run (twice as many load round trips on mine); setup_s is their median

	mineRemineShare = 0.40
	mineIncrShare   = 0.40
	mineReadShare   = 0.20
	mineReadSlices  = 8

	warmShare       = 0.05
	readOpenShare   = 0.45 // serve_read: the rest, about a fifth, is the fold tail
	readClosedShare = 0.30
	mixOpenShare    = 0.70 // mixed: one update per slice, open or closed
	mixClosedShare  = 0.25
)

const connections = 2 // load connections per run, the reference box's core count

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the metrics for the JSON line, extra
// diagnostics for the text lines, and the correctness tally.
type report struct {
	workload  string
	metrics   map[string]metric
	order     []string // print order of metrics
	attempted int
	failed    int
	problems  []string // first few failures, for the operator
	invalid   []string // reasons the load generator could not hold its schedule
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]metric)}
}

// setSeries records a timing metric from its per-slice values: at the
// reference machine speed as <name>, as measured as raw_<name>. p is a
// percentile over the slices, or meanOf for the trimmed mean.
func (r *report) setSeries(name string, s series, p float64, unit string) {
	stat := func(ds []time.Duration) float64 {
		d := trimmedMean(ds)
		if p != meanOf {
			d = percentile(sortedCopy(ds), p)
		}
		if unit == "s" {
			return d.Seconds()
		}
		return ms(d)
	}
	r.set(name, stat(s.cal), unit)
	r.set("raw_"+name, stat(s.raw), unit)
}

// setRate records a closed-loop rate from the per-slice time per
// operation: the median slice, inverted.
func (r *report) setRate(name string, perOp series) {
	rate := func(ds []time.Duration) float64 { return 1 / percentile(sortedCopy(ds), 50).Seconds() }
	r.set(name, rate(perOp.cal), "1/s")
	r.set("raw_"+name, rate(perOp.raw), "1/s")
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

// check tallies one verified operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 8 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64 // traffic: query pools, request order, arrivals, update ops
	dbSeed   int64 // the database; fixed across runs so timings are comparable
	seconds  float64
	sc       scale
	dir      string // scratch directory of this run
	rounds   int    // boots per run, setup_s being their median
	// boot starts the system under test with dir for its files; round
	// numbers the repeated boots of one run.
	boot func(dir string, round int, db graph.Database, workers int) (*target, error)
}

// progress reports on standard error where a run's wall time goes; the
// driver's budget is for the whole run, not just the measured part.
func progress(workload, phase string, since time.Time) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s took %.1fs\n", workload, phase, time.Since(since).Seconds())
}

func (c config) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func runWorkload(c config) (*report, error) {
	switch c.workload {
	case wlMine:
		return runMine(c)
	case wlServeRead:
		return runService(c, false, 0)
	case wlServeMixed:
		return runService(c, true, 0)
	case wlClusterMixed:
		return runService(c, true, 2)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
}

// runMine is the library path: closed loop, one goroutine, no HTTP and no
// second process. Mine at the fixed support, MineIncremental after a 10 %
// update round, and the read mix against an in-process server.Snapshot —
// the same calls the HTTP handlers make, minus parsing and encoding.
func runMine(c config) (*report, error) {
	rep := newReport(c.workload)
	rng := rand.New(rand.NewSource(c.seed))

	// Set-up: generate, write the text file, read it back.
	path := filepath.Join(c.dir, "db.txt")
	db := c.sc.database(c.dbSeed)
	minsup := absSupport(len(db), c.sc.minsup)
	yard := &yardstick{}
	var setups series
	var firstErr error
	for round := 0; round < 2*setupRounds; round++ {
		var d time.Duration
		scale := yard.around(func() {
			t0 := time.Now()
			firstErr = errors.Join(firstErr, os.WriteFile(path, dbText(c.sc.database(c.dbSeed)), 0o644))
			f, err := os.Open(path)
			if err == nil {
				_, err = partminer.ReadDatabase(f)
				f.Close()
			}
			firstErr = errors.Join(firstErr, err)
			d = time.Since(t0)
		})
		setups.add(d, scale)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	opts := partminer.Options{MinSupport: minsup, K: unitsK}
	want := gspan.Mine(db, gspan.Options{MinSupport: minsup})
	var base *partminer.Result
	for i := 0; i < 3; i++ { // warm-up
		var err error
		if base, err = partminer.Mine(db, opts); err != nil {
			return nil, err
		}
	}

	// Every timed call sits between two yardstick runs.
	var mines, incs series
	var allocs []float64
	for end := time.Now().Add(c.span(mineRemineShare)); time.Now().Before(end) || len(mines.raw) == 0; {
		var res *partminer.Result
		var err error
		var d time.Duration
		scale := yard.around(func() {
			allocs = append(allocs, allocMB(func() {
				t0 := time.Now()
				res, err = partminer.Mine(db, opts)
				d = time.Since(t0)
			}))
		})
		if err != nil {
			return nil, err
		}
		mines.add(d, scale)
		diff := diffSets(res.Patterns, want)
		rep.check(diff == "", "Mine differs from gSpan: %s", diff)
	}
	for end := time.Now().Add(c.span(mineIncrShare)); time.Now().Before(end) || len(incs.raw) == 0; {
		updated := db.Clone()
		tids := partminer.ApplyUpdates(updated, partminer.UpdateConfig{Fraction: 0.1, Seed: c.seed + int64(len(incs.raw))})
		prev := *base // MineIncremental patches prev.Index in place
		prev.Index = base.Index.Clone()
		var inc *partminer.IncResult
		var err error
		var d time.Duration
		scale := yard.around(func() {
			t0 := time.Now()
			inc, err = partminer.MineIncremental(updated, tids, &prev)
			d = time.Since(t0)
		})
		if err != nil {
			return nil, err
		}
		incs.add(d, scale)
		diff := diffSets(inc.Patterns, gspan.Mine(updated, gspan.Options{MinSupport: minsup}))
		rep.check(diff == "", "MineIncremental differs from gSpan: %s", diff)
	}

	// Reads: the mix against a snapshot assembled the way the server does,
	// in slices like the service workloads'.
	qs := buildQueries(rng, db, want, c.sc)
	orc := newOracle(db, nil, minsup, qs)
	snap := &server.Snapshot{Epoch: 1, DB: db, Res: base, Index: base.Index,
		Search: query.IndexFromPatterns(db, base.Index, base.Patterns, query.IndexOptions{})}
	reqs := (&readPool{qs: qs}).reads(rng, 1<<16)
	var planned, adhoc, rates series
	reads := 0
	for k := 0; k < mineReadSlices; k++ {
		recs := make([]record, 0, 1<<15)
		var span time.Duration
		scale := yard.around(func() {
			start := time.Now()
			for end := start.Add(c.span(mineReadShare) / mineReadSlices); (time.Now().Before(end) || len(recs) == 0) && len(recs) < cap(recs); reads++ {
				req := reqs[reads%len(reqs)]
				t0 := time.Now()
				sum := snapshotRead(snap, qs, req)
				d := time.Since(t0)
				recs = append(recs, record{c: req.c, id: req.id, done: d, status: http.StatusOK, epoch: 1, sum: sum, minEpoch: 1, maxEpoch: 1})
			}
			span = time.Since(start)
		})
		verifyReads(rep, orc, recs)
		planned.add(percentile(sortedCopy(latencies(recs, func(r record) bool { return r.c == containsPlanned })), 50), scale)
		adhoc.add(percentile(sortedCopy(latencies(recs, func(r record) bool { return r.c == containsAdhoc })), 50), scale)
		rates.add(span/time.Duration(len(recs)), scale)
	}

	rep.setSeries("setup_s", setups, 50, "s")
	rep.setSeries("remine_ms", mines, meanOf, "ms")
	rep.setSeries("incr_ms", incs, meanOf, "ms")
	rep.setSeries("planned_p50_ms", planned, 50, "ms")
	rep.setSeries("adhoc_p50_ms", adhoc, 50, "ms")
	rep.setRate("read_rps_max", rates)
	rep.set("mem_mb", medianFloat(allocs), "MB")

	// Diagnostics, as measured.
	rep.set("yardstick_ms", ms(yard.median()), "ms")
	rep.set("remine_samples", float64(len(mines.raw)), "count")
	rep.set("incr_samples", float64(len(incs.raw)), "count")
	rep.set("read_samples", float64(reads), "count")
	sortedMines := sortedCopy(mines.raw)
	for _, p := range []float64{50, pickTail(len(sortedMines))} {
		rep.set(fmt.Sprintf("remine_p%g_ms", p), ms(percentile(sortedMines, p)), "ms")
	}
	return rep, nil
}

// snapshotRead answers one read of the mix in process and digests the
// answer the way scanAnswer digests the HTTP body.
func snapshotRead(snap *server.Snapshot, qs *queries, req request) digest {
	d := digestSeed
	switch req.c {
	case containsPlanned, containsAdhoc:
		tids, _ := snap.Contains(qs.graphs[req.id])
		d = d.foldInt(len(tids)).foldList(tids)
	case containsBatch:
		gs := make([]*graph.Graph, len(qs.batches[req.id]))
		for i, id := range qs.batches[req.id] {
			gs[i] = qs.graphs[id]
		}
		all, _ := snap.ContainsBatch(gs)
		for _, tids := range all {
			d = d.foldInt(len(tids)).foldList(tids)
		}
	case patternsTopK:
		for _, p := range snap.TopKRange(topKK, topKMin, 0) {
			d = d.foldKey(p.Code.Key()).foldInt(p.Support)
		}
	case patternsKey:
		if p := snap.Pattern(qs.patterns[req.id].Code.Key()); p != nil {
			d = d.foldKey(p.Code.Key()).foldInt(p.Support).foldList(p.TIDs.Slice())
		}
	}
	return d
}

// verifyReads compares every read record with the oracle. Containment is
// checked at whatever epoch the answer names. Pattern lists are checked
// at the first and the last epoch, where the oracle has mined the model;
// in between only the status is checked. No answer may come from an epoch
// later than the updates sent before it was read allow.
func verifyReads(rep *report, orc *oracle, recs []record) {
	for _, r := range recs {
		if !r.c.isRead() {
			continue
		}
		name := classNames[r.c]
		epoch := int(r.epoch)
		known := epoch == 1 || epoch == orc.lastEpoch()
		if r.c == patternsKey && r.status == http.StatusNotFound {
			// The key was frequent at epoch 1; later epochs may drop it. A 404
			// carries no epoch: it is right if the key was infrequent at one of
			// the epochs the server can have been at while the request was out.
			key, dropped := orc.qs.patterns[r.id].Code.Key(), false
			for e := r.minEpoch; e <= r.maxEpoch && !dropped; e++ {
				dropped = orc.patterns(e)[key] == nil
			}
			rep.check(dropped, "%s %d: 404 for a pattern frequent at epochs %d-%d", name, r.id, r.minEpoch, r.maxEpoch)
			continue
		}
		if r.status != http.StatusOK {
			rep.check(false, "%s %d: status %d", name, r.id, r.status)
			continue
		}
		if epoch < 1 || epoch > r.maxEpoch {
			rep.check(false, "%s %d: epoch %d outside [1,%d]", name, r.id, epoch, r.maxEpoch)
			continue
		}
		want := digestSeed
		switch r.c {
		case containsPlanned, containsAdhoc:
			tids := orc.contains(r.id, epoch)
			want = want.foldInt(len(tids)).foldList(tids)
		case containsBatch:
			for _, id := range orc.qs.batches[r.id] {
				tids := orc.contains(id, epoch)
				want = want.foldInt(len(tids)).foldList(tids)
			}
		case patternsTopK:
			if !known {
				rep.check(true, "")
				continue
			}
			for _, p := range orc.topK(epoch) {
				want = want.foldKey(p.Code.Key()).foldInt(p.Support)
			}
		case patternsKey:
			if !known {
				rep.check(true, "")
				continue
			}
			p := orc.patterns(epoch)[orc.qs.patterns[r.id].Code.Key()]
			if p == nil {
				rep.check(false, "%s %d: answered at epoch %d where the pattern is infrequent", name, r.id, epoch)
				continue
			}
			want = want.foldKey(p.Code.Key()).foldInt(p.Support).foldList(p.TIDs.Slice())
		}
		rep.check(r.sum == want, "%s %d at epoch %d: wrong answer", name, r.id, epoch)
	}
}

// runService drives partserved over HTTP: reads only when mixed is false
// (followed by an unloaded tail of folds, so the fold metrics exist on
// every workload and the read phases stay free of mining), reads beside
// one writer connection when mixed; workers > 0 boots the cluster.
//
// The run is cut into slices of one update interval. Between slices, with
// no request in flight, the yardstick runs once; each slice's numbers are
// scaled by the yardstick on either side of it, and the run's metric is
// the median (for folds, the trimmed mean) over slices. A burst of host
// noise spoils one slice, not the run, and drift is cancelled where it
// happens.
func runService(c config, mixed bool, workers int) (*report, error) {
	rep := newReport(c.workload)
	rng := rand.New(rand.NewSource(c.seed))
	phase := time.Now()
	db := c.sc.database(c.dbSeed)
	if err := os.WriteFile(filepath.Join(c.dir, "db.txt"), dbText(db), 0o644); err != nil {
		return nil, err
	}
	minsup := absSupport(len(db), c.sc.minsup)
	yard := &yardstick{}
	mined := gspan.Mine(db, gspan.Options{MinSupport: minsup})
	qs := buildQueries(rng, db, mined, c.sc)
	pool := newReadPool(qs, workers > 0)

	sliceLen := time.Duration(float64(time.Second) / c.sc.updRate)
	slices := max(int(c.span(readOpenShare+readClosedShare)/sliceLen), 2)
	closedSlices := max(int(float64(slices)*readClosedShare/(readOpenShare+readClosedShare)+0.5), 1)
	tail := c.sc.tailInc + c.sc.tailFull
	fullEvery := tail / c.sc.tailFull
	if mixed {
		slices = max(int(c.span(mixOpenShare+mixClosedShare)/sliceLen), 2)
		closedSlices = max(int(float64(slices)*mixClosedShare/(mixOpenShare+mixClosedShare)+0.5), 1)
		tail, fullEvery = 0, c.sc.fullEvery
	}

	// The write side is drawn in full before anything runs, against the
	// harness's own model, which is what the oracle answers from: one
	// update per slice when mixed, the tail otherwise.
	model := append(graph.Database(nil), db...)
	ups := genUpdates(rng, &model, max(tail, slices*b2i(mixed)), fullEvery, c.sc.gen.N)
	updReqs := make([]request, len(ups))
	for i, u := range ups {
		cl := updateInc
		if u.full {
			cl = updateFull
		}
		updReqs[i] = request{cl, i, wireRequest(http.MethodPost, "/v1/update", u.body())}
	}
	orc := newOracle(db, ups, minsup, qs)
	progress(c.workload, "generating inputs", phase)
	phase = time.Now()

	// Set-up: boot several times, keep the last.
	var tgt *target
	var setups series
	for round := 0; round < max(c.rounds, 1); round++ {
		if tgt != nil {
			tgt.stop()
		}
		var err error
		scale := yard.around(func() { tgt, err = c.boot(c.dir, round, db, workers) })
		if err != nil {
			return nil, err
		}
		setups.add(tgt.setup, scale)
	}
	defer tgt.stop()
	rep.setSeries("setup_s", setups, 50, "s")
	progress(c.workload, "set-up", phase)
	phase = time.Now()

	var readers []*lane
	for i := 0; i < connections-b2i(mixed); i++ {
		cn, err := dial(tgt.addr)
		if err != nil {
			return nil, err
		}
		defer cn.close()
		l := &lane{conn: cn, closed: pool.reads(rng, 4096), closedUntil: c.span(warmShare)}
		drive(l) // warm-up: connection, server caches, harness code paths; not recorded
		readers = append(readers, l)
	}
	wcn, err := dial(tgt.addr)
	if err != nil {
		return nil, err
	}
	defer wcn.close()
	writer := &lane{conn: wcn}

	var (
		recs           []record // everything, for verification
		planned, adhoc series   // per open slice: p50 of the reads that met no update
		fulls, incs    series   // per fold outside the closed loop
		rates          series   // per closed slice: the time one read took, 1/rate
		// Diagnostics over all open slices, as measured.
		openReads, plannedAll, inFold, waits, lags []time.Duration
		overrun                                    time.Duration
	)
	for k := 0; k < slices+tail; k++ {
		lanes := readers
		closed := k >= slices-closedSlices
		switch {
		case k >= slices: // serve_read's tail: one unloaded update
			writer.dues, writer.open, writer.giveUp = []time.Duration{0}, updReqs[k-slices:k-slices+1], time.Minute
			lanes = []*lane{writer}
		default:
			for _, l := range readers {
				l.dues, l.open, l.closed, l.giveUp = nil, nil, nil, sliceLen+10*time.Second
				if closed {
					l.closed, l.closedUntil = pool.reads(rng, 4096), sliceLen
				} else {
					l.dues = poissonDues(rng, c.sc.readRate/float64(len(readers)), 0, sliceLen)
					l.open = pool.reads(rng, len(l.dues))
				}
			}
			if mixed {
				// Early in the slice, so that the fold (and on the cluster the
				// replication behind it) is over before the next yardstick.
				writer.dues, writer.open, writer.giveUp = []time.Duration{sliceLen / 8}, updReqs[k:k+1], time.Minute
				lanes = append(lanes[:len(lanes):len(lanes)], writer)
			}
		}
		var took time.Duration
		scale := yard.around(func() { took = drive(lanes...) })
		if k < slices {
			overrun = max(overrun, took-sliceLen)
		}

		var fold []window
		var slice []record
		for _, l := range lanes {
			slice = append(slice, l.records...)
			if l.refused > 0 {
				rep.attempted += l.refused
				rep.failed += l.refused
				rep.problems = append(rep.problems, fmt.Sprintf("slice %d: %d requests never sent", k, l.refused))
			}
			if l != writer {
				lags = append(lags, l.lags...)
				l.lags = l.lags[:0]
				continue
			}
			for _, r := range l.records {
				fold = append(fold, window{r.sent, r.done})
				switch {
				case closed && k < slices:
					// A fold beside the closed loop fights a saturated server and
					// takes anything from 1x to 2x: it loads the rate, it is not
					// a fold sample.
				case r.c == updateFull:
					fulls.add(r.latency(), scale)
				default:
					incs.add(r.latency(), scale)
				}
				if r.status == http.StatusOK {
					waits = append(waits, r.latency()-r.server)
				}
			}
		}
		// Update i publishes epoch i+2; on a mixed workload slice k sends update k.
		for i := range slice {
			r := &slice[i]
			r.minEpoch, r.maxEpoch = 1+k*b2i(mixed), 1+k*b2i(mixed)
			for _, w := range fold {
				r.minEpoch += b2i(w.to <= r.sent)
				r.maxEpoch += b2i(w.from < r.done)
			}
		}
		recs = append(recs, slice...)
		if k >= slices {
			continue
		}
		if closed {
			n, first, last := 0, time.Duration(0), time.Duration(0)
			for _, r := range slice {
				if r.c.isRead() {
					if n == 0 || r.sent < first {
						first = r.sent
					}
					last = max(last, r.done)
					n++
				}
			}
			if n > 0 {
				rates.add((last-first)/time.Duration(n), scale)
			}
			continue
		}
		// Reads are bimodal beside a writer: on two cores a fold and its
		// garbage collection starve the reads they overlap. The end-to-end read
		// latencies count the reads that met no update in flight (all of them
		// on serve_read); the overlapped ones are read_in_fold_p90_ms.
		quiet := func(r record) bool { return r.c.isRead() && !inAny(fold, r.due, r.done) }
		if ds := latencies(slice, func(r record) bool { return r.c == containsPlanned && quiet(r) }); len(ds) > 0 {
			planned.add(percentile(sortedCopy(ds), 50), scale)
		}
		if ds := latencies(slice, func(r record) bool { return r.c == containsAdhoc && quiet(r) }); len(ds) > 0 {
			adhoc.add(percentile(sortedCopy(ds), 50), scale)
		}
		openReads = append(openReads, latencies(slice, func(r record) bool { return r.c.isRead() })...)
		inFold = append(inFold, latencies(slice, func(r record) bool { return r.c.isRead() && !quiet(r) })...)
		plannedAll = append(plannedAll, latencies(slice, func(r record) bool { return r.c == containsPlanned })...)
	}
	progress(c.workload, "measuring", phase)
	phase = time.Now()

	verifyReads(rep, orc, recs)
	for _, r := range recs {
		if !r.c.isRead() {
			rep.check(r.status == http.StatusOK, "%s %d: status %d", classNames[r.c], r.id, r.status)
		}
	}
	verifyFinal(rep, orc, tgt.addr)
	progress(c.workload, "checking answers", phase)

	if len(fulls.raw) == 0 || len(incs.raw) == 0 || len(planned.raw) == 0 || len(adhoc.raw) == 0 || len(rates.raw) == 0 {
		return nil, fmt.Errorf("a metric has no samples: %d add_graph folds, %d in-place folds, %d planned, %d ad-hoc and %d closed-loop slices",
			len(fulls.raw), len(incs.raw), len(planned.raw), len(adhoc.raw), len(rates.raw))
	}
	rep.setSeries("remine_ms", fulls, meanOf, "ms")
	rep.setSeries("incr_ms", incs, meanOf, "ms")
	rep.setSeries("planned_p50_ms", planned, 50, "ms")
	rep.setSeries("adhoc_p50_ms", adhoc, 50, "ms")
	rep.setRate("read_rps_max", rates)
	rss, err := tgt.rssMB()
	if err != nil {
		return nil, err
	}
	rep.set("mem_mb", rss, "MB")

	// Diagnostics: printed, and read by the traced run; not in the
	// end-to-end JSON. All are as measured, not scaled.
	rep.set("yardstick_ms", ms(yard.median()), "ms")
	rep.set("sent", float64(len(recs)), "count")
	rep.set("read_samples", float64(len(openReads)), "count")
	rep.set("incr_samples", float64(len(incs.raw)), "count")
	rep.set("remine_samples", float64(len(fulls.raw)), "count")
	sortedReads := sortedCopy(openReads)
	for _, p := range []float64{50, 90, 99, 99.9} {
		rep.set(fmt.Sprintf("read_p%g_ms", p), ms(percentile(sortedReads, p)), "ms")
	}
	rep.set("contains_planned_p50_ms", ms(percentile(sortedCopy(plannedAll), 50)), "ms")
	rep.set("incr_p90_ms", ms(percentile(sortedCopy(incs.raw), 90)), "ms")
	rep.set("fold_queue_wait_ms", ms(percentile(sortedCopy(waits), 50)), "ms") // client latency minus the fold latency the server reports
	if mixed {
		rep.set("read_in_fold_p90_ms", ms(percentile(sortedCopy(inFold), 90)), "ms")
	}
	lagP95 := ms(percentile(sortedCopy(lags), 95))
	rep.set("sched_lag_p95_ms", lagP95, "ms")
	if lagP95 > 2 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator lag p95 %.2f ms exceeds 2 ms", lagP95))
	}
	// A slice waits for its last response, so updates cannot pile up; what
	// can happen instead is that slices run long and the fixed rate is not
	// held.
	rep.set("slice_overrun_max_ms", ms(overrun), "ms")
	if overrun > sliceLen/2 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("a slice ran %v past its %v", overrun, sliceLen))
	}
	st, err := tgt.stats()
	if err != nil {
		return nil, err
	}
	rep.set("cache_hit_ratio", st.CacheHitRatio, "ratio")
	rep.set("plan_hit_ratio", float64(st.PlanHits)/float64(max(st.PlanHits+st.CacheHits+st.CacheMisses, 1)), "ratio")
	rep.set("vf2_fallbacks", float64(st.VF2Fallbacks), "count")
	rep.set("ops_per_fold", float64(st.OpsApplied)/float64(max(st.Batches, 1)), "ratio")
	if cl := st.Cluster; cl != nil {
		rep.set("cluster_local_mines", float64(cl.Counters.LocalMines), "count")
		rep.set("cluster_warm_hits", float64(cl.Counters.WarmHits), "count")
		rep.set("cluster_ship_mb", float64(cl.Counters.ShipBytes)/(1<<20), "MB")
		var mined, mineSec, mineCalls float64
		for _, m := range cl.Members {
			mined += float64(m.Mined)
			mineSec += m.Metrics["partworker_unit_mine_seconds_sum"]
			mineCalls += m.Metrics["partworker_unit_mine_seconds_count"]
		}
		rep.set("cluster_mined", mined, "count")
		rep.set("cluster_worker_unit_mine_ms", mineSec*1000/max(mineCalls, 1), "ms")
		// The replica must have caught up with the last acknowledged epoch.
		status, body, err := readers[0].conn.do(pool.replica[0])
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("replica read: status %d, %v", status, err)
		}
		epoch, _ := scanAnswer(body)
		rep.set("replica_epoch_lag", float64(orc.lastEpoch())-float64(epoch), "count")
	}
	return rep, nil
}

// series is one metric's per-slice values, as measured and scaled to the
// reference speed.
type series struct{ raw, cal []time.Duration }

func (s *series) add(d time.Duration, scale float64) {
	s.raw = append(s.raw, d)
	s.cal = append(s.cal, time.Duration(float64(d)*scale))
}

// drive runs the lanes concurrently against one clock origin, waits for
// all of them and returns how long that took.
func drive(lanes ...*lane) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(t0)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// verifyFinal is the lossless invariant: once the last update has been
// acknowledged, the served pattern set — keys, supports, TIDs — must
// equal gSpan over the harness's own model of the database.
func verifyFinal(rep *report, orc *oracle, addr string) {
	cn, err := dial(addr)
	if err != nil {
		rep.check(false, "final check: %v", err)
		return
	}
	defer cn.close()
	status, body, err := cn.do(wireRequest(http.MethodGet, "/v1/patterns?k=0&tids=1", nil))
	if err != nil || status != http.StatusOK {
		rep.check(false, "final check: status %d, %v", status, err)
		return
	}
	var doc struct {
		Epoch    int `json:"epoch"`
		Patterns []struct {
			Key     string `json:"key"`
			Support int    `json:"support"`
			TIDs    []int  `json:"tids"`
		} `json:"patterns"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		rep.check(false, "final check: %v", err)
		return
	}
	got := make(pattern.Set, len(doc.Patterns))
	codes := make(map[string]*pattern.Pattern)
	for _, p := range orc.patterns(orc.lastEpoch()) {
		codes[p.Code.Key()] = p
	}
	for _, p := range doc.Patterns {
		tids := pattern.NewTIDSet(0)
		for _, t := range p.TIDs {
			tids.Add(t)
		}
		gp := &pattern.Pattern{Support: p.Support, TIDs: tids}
		if w := codes[p.Key]; w != nil {
			gp.Code = w.Code // for readable diffs; the map key is what is compared
		}
		got[p.Key] = gp
	}
	diff := diffSets(got, orc.patterns(orc.lastEpoch()))
	rep.check(doc.Epoch == orc.lastEpoch() && diff == "",
		"final pattern set at epoch %d (want %d): %s", doc.Epoch, orc.lastEpoch(), diff)
}
