package query

// plan_test.go pins the planned read path: plan hits must be
// bit-identical to Scan, the ad-hoc cache must be transparent (same
// answers, bounded size), and disabling both must reproduce the generic
// path exactly.

import (
	"math/rand"
	"testing"

	"partminer/internal/graph"
	"partminer/internal/obs"
)

// TestPlannedFindMatchesScan runs the full planned pipeline over many
// seeds: mined-pattern queries take the plan-hit path, subgraph cuts the
// fallback+cache path, and every answer must equal Scan. Each query runs
// twice so the second round exercises the cache.
func TestPlannedFindMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		db := graph.RandomDatabase(rng, 12+rng.Intn(16), 6+rng.Intn(8), 7+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(3))
		ix := buildIndex(db, IndexOptions{})
		if ix.PlanCount() == 0 {
			t.Fatalf("seed %d: no plans compiled", seed)
		}
		var queries []*graph.Graph
		for _, f := range multiEdge(ix) {
			queries = append(queries, f.Code.Graph())
		}
		for i := 0; i < 6; i++ {
			q := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(5))
			if q.Connected() && q.EdgeCount() > 0 {
				queries = append(queries, q)
			}
		}
		for round := 0; round < 2; round++ {
			for qi, q := range queries {
				got, st := ix.Find(q)
				want := Scan(db, q)
				if len(got) != len(want) {
					t.Fatalf("seed %d round %d query %d: Find %v, Scan %v (planhit=%v cachehit=%v)",
						seed, round, qi, got, want, st.PlanHit, st.CacheHit)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("seed %d round %d query %d: Find %v, Scan %v", seed, round, qi, got, want)
					}
				}
			}
		}
	}
}

// TestPlanHitServesMinedTIDs checks that a query shaped exactly like a
// mined feature is recognized as a plan hit and that the observer sees
// the plan counters.
func TestPlanHitServesMinedTIDs(t *testing.T) {
	db := testDB(3, 60)
	col := obs.NewRegistry("")
	ix := buildIndex(db, IndexOptions{Observer: col})
	if ix.PlanCount() == 0 {
		t.Fatal("no plans compiled")
	}
	hits := 0
	for _, f := range multiEdge(ix) {
		q := f.Code.Graph()
		got, st := ix.Find(q)
		if !st.PlanHit {
			t.Fatalf("feature %s: expected plan hit", f.Code.Key())
		}
		if want := f.TIDs.Slice(); len(got) != len(want) {
			t.Fatalf("feature %s: plan hit returned %v, mined %v", f.Code.Key(), got, want)
		}
		hits++
	}
	m := col.View()
	if m.Counters["plan.hit"] != int64(hits) {
		t.Fatalf("plan.hit counter = %d, want %d", m.Counters["plan.hit"], hits)
	}
	if m.Counters["plan.compiled"] != int64(ix.PlanCount()) {
		t.Fatalf("plan.compiled counter = %d, want %d", m.Counters["plan.compiled"], ix.PlanCount())
	}
	if got := m.Stage("plan.find").Calls; got != hits {
		t.Fatalf("plan.find stage observed %d times, want %d", got, hits)
	}
}

// TestAdHocCache checks cache hits on repeated ad-hoc queries, the
// counters, and the size bound under churn.
func TestAdHocCache(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := testDB(5, 50)
	col := obs.NewRegistry("")
	ix := buildIndex(db, IndexOptions{CacheSize: 8, Observer: col})
	// An ad-hoc query: cut from the db but checked to not be a planned read.
	var q *graph.Graph
	for i := 0; i < 200; i++ {
		c := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		if !c.Connected() || c.EdgeCount() == 0 {
			continue
		}
		if key := ix.planKey(c); key != "" && ix.planned[key] == nil {
			q = c
			break
		}
	}
	if q == nil {
		t.Skip("no ad-hoc query found")
	}
	first, st := ix.Find(q)
	if st.PlanHit || st.CacheHit {
		t.Fatalf("first ad-hoc run must miss (planhit=%v cachehit=%v)", st.PlanHit, st.CacheHit)
	}
	second, st := ix.Find(q)
	if !st.CacheHit {
		t.Fatal("second ad-hoc run must hit the cache")
	}
	if len(first) != len(second) {
		t.Fatalf("cache changed the answer: %v vs %v", first, second)
	}
	// Mutating the returned slice must not poison the cache.
	if len(second) > 0 {
		second[0] = -99
		again, _ := ix.Find(q)
		if again[0] == -99 {
			t.Fatal("cache returned a shared slice")
		}
	}
	// One miss (the first run), then a hit for each repeat.
	hits := int64(1)
	if len(second) > 0 {
		hits++
	}
	if m := col.View(); m.Counters["query.cache_hit"] != hits || m.Counters["query.cache_miss"] != 1 || m.Counters["plan.hit"] != 0 {
		t.Fatalf("seam counters = %v, want %d cache hits, 1 miss, no plan hit", m.Counters, hits)
	}
	// Churn many distinct queries through the size-8 cache.
	for i := 0; i < 100; i++ {
		c := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		if !c.Connected() || c.EdgeCount() == 0 {
			continue
		}
		ix.Find(c)
		if size := ix.cache.Len(); size > 8 {
			t.Fatalf("cache exceeded bound: %d entries", size)
		}
	}
}

// TestPlansDisabled pins that negative PlanMaxEdges/CacheSize reproduce
// the pre-plan generic path: correct answers, no plan or cache hits.
func TestPlansDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := testDB(7, 40)
	ix := buildIndex(db, IndexOptions{PlanMaxEdges: -1, CacheSize: -1})
	if ix.PlanCount() != 0 {
		t.Fatalf("plans compiled despite PlanMaxEdges<0: %d", ix.PlanCount())
	}
	for i := 0; i < 10; i++ {
		q := queryFrom(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		if !q.Connected() || q.EdgeCount() == 0 {
			continue
		}
		got, st := ix.Find(q)
		if st.PlanHit || st.CacheHit {
			t.Fatal("plan/cache hit despite being disabled")
		}
		want := Scan(db, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: Find %v, Scan %v", i, got, want)
		}
	}
}
