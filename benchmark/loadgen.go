package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// class names one kind of operation; metrics are reported per class or
// over all read classes.
type class uint8

const (
	containsPlanned class = iota // query is a mined pattern: answered from its plan
	containsAdhoc                // query is not: result cache or generic filter-verify
	containsBatch                // 16 queries in one request
	patternsTopK                 // /v1/patterns?k=10&min_edges=3
	patternsKey                  // /v1/patterns?key=...&tids=1
	updateInc                    // in-place /v1/update: incremental fold
	updateFull                   // add_graph /v1/update: full re-mine
	numClasses
)

var classNames = [numClasses]string{"contains_planned", "contains_adhoc", "contains_batch", "patterns_topk", "patterns_key", "update_inc", "update_full"}

func (c class) isRead() bool { return c < updateInc }

// The read mix, in percent per class; it sums to 100.
var readMix = [...]struct {
	c   class
	pct int
}{{containsPlanned, 50}, {containsAdhoc, 25}, {containsBatch, 5}, {patternsTopK, 15}, {patternsKey, 5}}

const (
	topKPath    = "/v1/patterns?k=10&min_edges=3"
	topKK       = 10
	topKMin     = 3
	replicaOneN = 10 // in cluster_mixed one in this many single contains reads asks for a replica
)

// request is one pre-built operation: its wire bytes and what it asks,
// so the answer can be checked later.
type request struct {
	c    class
	id   int // query id, batch id, pattern index or update index, by class
	wire []byte
}

// record is what the load goroutine keeps of one completed request.
// Times are offsets from the run's clock origin.
type record struct {
	c      class
	id     int
	due    time.Duration // when the schedule wanted it sent
	sent   time.Duration // when it was written
	done   time.Duration // when the response had been read
	status int           // 0 on an I/O error
	server time.Duration // updates: the fold latency the server reported
	epoch  uint64
	sum    digest
	// The epochs the server can have been at between sent and done, from the
	// updates acknowledged before the one and sent before the other; filled
	// in after the slice, for verification.
	minEpoch, maxEpoch int
}

// latency is timed from the instant the request was due, not sent, so a
// stalled server is charged for the requests it kept waiting.
func (r record) latency() time.Duration { return r.done - r.due }

// readPool renders every distinct read request once.
type readPool struct {
	qs      *queries
	single  [][]byte // contains by query id
	replica [][]byte // same with ?replica=1 (nil unless the workload reads replicas)
	batch   [][]byte
	topK    []byte
	key     [][]byte // by pattern index
}

func newReadPool(qs *queries, withReplica bool) *readPool {
	p := &readPool{qs: qs, topK: wireRequest(http.MethodGet, topKPath, nil)}
	for _, g := range qs.graphs {
		body := []byte(queryText(g))
		p.single = append(p.single, wireRequest(http.MethodPost, "/v1/contains", body))
		if withReplica {
			p.replica = append(p.replica, wireRequest(http.MethodPost, "/v1/contains?replica=1", body))
		}
	}
	for _, ids := range qs.batches {
		var b strings.Builder
		for _, id := range ids {
			b.WriteString(queryText(qs.graphs[id]))
		}
		p.batch = append(p.batch, wireRequest(http.MethodPost, "/v1/contains", []byte(b.String())))
	}
	for _, pat := range qs.patterns {
		path := "/v1/patterns?tids=1&key=" + url.QueryEscape(pat.Code.Key())
		p.key = append(p.key, wireRequest(http.MethodGet, path, nil))
	}
	return p
}

// draw picks the next read of the mix. Ad-hoc queries follow Zipf(1.1)
// over the pool, so a few are hot enough to hit the per-epoch result
// cache while the pool as a whole (4x the cache) keeps the generic path
// busy; everything else is uniform.
func (p *readPool) draw(rng *rand.Rand, zipf *rand.Zipf) request {
	x := rng.Intn(100)
	c := readMix[0].c
	for _, m := range readMix {
		if x < m.pct {
			c = m.c
			break
		}
		x -= m.pct
	}
	req := request{c: c}
	switch c {
	case containsPlanned:
		req.id = rng.Intn(p.qs.planned)
	case containsAdhoc:
		req.id = p.qs.planned + int(zipf.Uint64())
	case containsBatch:
		req.id = rng.Intn(len(p.qs.batches))
	case patternsKey:
		req.id = rng.Intn(p.qs.planned)
	}
	if p.single == nil {
		return req // in-process pool: no wire form
	}
	switch c {
	case containsPlanned, containsAdhoc:
		req.wire = p.single[req.id]
		if p.replica != nil && rng.Intn(replicaOneN) == 0 {
			req.wire = p.replica[req.id]
		}
	case containsBatch:
		req.wire = p.batch[req.id]
	case patternsTopK:
		req.wire = p.topK
	case patternsKey:
		req.wire = p.key[req.id]
	}
	return req
}

// reads pre-draws n requests of the mix.
func (p *readPool) reads(rng *rand.Rand, n int) []request {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(p.qs.adhoc()-1))
	out := make([]request, n)
	for i := range out {
		out[i] = p.draw(rng, zipf)
	}
	return out
}

// poissonDues draws arrival times at the given mean rate over [from,
// from+span): independent users make exponential gaps, and a schedule
// fixed before the clock starts cannot adapt to the server.
func poissonDues(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	var out []time.Duration
	t := from
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= from+span {
			return out
		}
		out = append(out, t)
	}
}

// lane is one connection's work for a run: an open-loop schedule, then
// an optional closed loop until closedUntil.
type lane struct {
	conn        *conn
	dues        []time.Duration
	open        []request // open[i] is due at dues[i]
	closed      []request // cycled through by the closed loop
	closedUntil time.Duration
	giveUp      time.Duration // requests still unsent at this offset are refused

	records []record
	lags    []time.Duration // per open-loop request: sent - max(due, previous done)
	refused int
}

// spinMargin is how long before a due time the lane stops sleeping and
// polls the clock. The kernel wakes a sleeper 0.1-0.4 ms late on the
// reference VM; at 100 us the run-to-run spread of a 0.4 ms read latency
// was 70 %, at 500 us 12 %. Polling costs a quarter of one core at the
// fixed 500 reads/s.
const spinMargin = 500 * time.Microsecond

// sleepUntil blocks the calling thread until offset due of the clock
// started at t0. It sleeps in the kernel directly: time.Sleep in a process
// with open sockets waits through the network poller, whose timeout has
// millisecond granularity — a 1 ms overshoot on requests that take 0.3 ms.
func sleepUntil(t0 time.Time, due time.Duration) {
	for {
		rem := due - time.Since(t0) - spinMargin
		if rem <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(rem))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep is retried by the loop
	}
	for time.Since(t0) < due {
	}
}

// run drives the lane against the clock origin t0 and blocks until done.
// It owns an OS thread so that sleepUntil parks this lane and nothing else.
func (l *lane) run(t0 time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	l.records = make([]record, 0, len(l.dues)+1024)
	var prevDone time.Duration
	for i, due := range l.dues {
		now := time.Since(t0)
		if now > l.giveUp {
			l.refused += len(l.dues) - i
			break
		}
		sleepUntil(t0, due)
		sent := time.Since(t0)
		free := due
		if prevDone > free {
			free = prevDone
		}
		l.lags = append(l.lags, sent-free)
		rec := l.issue(l.open[i], due, sent, t0)
		prevDone = rec.done
		l.records = append(l.records, rec)
	}
	for i := 0; len(l.closed) > 0 && time.Since(t0) < l.closedUntil; i++ {
		sent := time.Since(t0)
		l.records = append(l.records, l.issue(l.closed[i%len(l.closed)], sent, sent, t0))
	}
}

func (l *lane) issue(req request, due, sent time.Duration, t0 time.Time) record {
	rec := record{c: req.c, id: req.id, due: due, sent: sent}
	status, body, err := l.conn.do(req.wire)
	rec.done = time.Since(t0)
	if err != nil {
		l.conn.redial() //nolint:errcheck // a dead server fails every later request too, which is the report
		return rec
	}
	rec.status = status
	if status == http.StatusOK {
		if req.c.isRead() {
			rec.epoch, rec.sum = scanAnswer(body)
		} else if i := bytes.Index(body, []byte(`"latency_ns":`)); i >= 0 {
			ns, _ := scanInt(body, skipSpace(body, i+len(`"latency_ns":`)))
			rec.server = time.Duration(ns)
		}
	}
	return rec
}

// window is a half-open interval of the run clock.
type window struct{ from, to time.Duration }

func (w window) overlaps(from, to time.Duration) bool { return from < w.to && w.from < to }

// latencies collects the due-time latencies of the records keep accepts.
func latencies(recs []record, keep func(record) bool) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if keep(r) {
			out = append(out, r.latency())
		}
	}
	return out
}

// inAny reports whether [from, to] overlaps one of the windows, which
// must be sorted by start and disjoint (one writer: folds never overlap).
func inAny(ws []window, from, to time.Duration) bool {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].to > from })
	return i < len(ws) && ws[i].overlaps(from, to)
}

// meanOf, in place of a percentile, asks for the trimmed mean.
const meanOf = -1
