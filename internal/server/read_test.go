package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/dfscode"
	"partminer/internal/graph"
	"partminer/internal/pattern"
)

// tiedSet returns n distinct patterns of 1 to 5 edges whose supports take
// only three values, so most comparisons in a ranking are ties broken by
// the canonical key.
func tiedSet(seed int64, n int) pattern.Set {
	rng := rand.New(rand.NewSource(seed))
	set := make(pattern.Set, n)
	for len(set) < n {
		code := make(dfscode.Code, 1+rng.Intn(5))
		for i := range code {
			code[i] = dfscode.EdgeCode{I: i, J: i + 1, LI: rng.Intn(3), LE: rng.Intn(2), LJ: rng.Intn(3)}
		}
		set.Add(&pattern.Pattern{Code: code, Support: 10 + rng.Intn(3)})
	}
	return set
}

// sortedTopK is the ranking as a full sort per read computes it: filter,
// sort by support descending and Code.Key ascending, cut at k.
func sortedTopK(set pattern.Set, k, minEdges, maxEdges int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, p := range set {
		if p.Size() >= minEdges && (maxEdges <= 0 || p.Size() <= maxEdges) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Code.Key() < out[j].Code.Key()
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestTopKRangeMatchesSort checks the once-per-epoch ranking against a
// full sort per read on a set of many support ties, over k, min_edges
// and max_edges.
func TestTopKRangeMatchesSort(t *testing.T) {
	set := tiedSet(1, 300)
	snap := &Snapshot{Epoch: 1, Res: &core.Result{Patterns: set}}
	for _, k := range []int{-1, 0, 1, 10, len(set) + 1} {
		for _, r := range [][2]int{{0, 0}, {3, 0}, {0, 2}, {2, 4}, {5, 5}, {6, 0}, {4, 2}} {
			minEdges, maxEdges := r[0], r[1]
			got := snap.TopKRange(k, minEdges, maxEdges)
			want := sortedTopK(set, k, minEdges, maxEdges)
			if len(got) != len(want) {
				t.Fatalf("k=%d edges %d..%d: %d patterns, want %d", k, minEdges, maxEdges, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d edges %d..%d: [%d] = %v, want %v", k, minEdges, maxEdges, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKRangeResultIsCallers checks that a caller who rewrites the
// slice TopKRange returned changes no later answer: the slice is fresh,
// not a window on the epoch's ranking.
func TestTopKRangeResultIsCallers(t *testing.T) {
	set := tiedSet(2, 50)
	snap := &Snapshot{Epoch: 1, Res: &core.Result{Patterns: set}}
	for _, k := range []int{0, 5} {
		first := snap.TopKRange(k, 0, 0)
		want := append([]*pattern.Pattern(nil), first...)
		for i, j := 0, len(first)-1; i < j; i, j = i+1, j-1 {
			first[i], first[j] = first[j], first[i]
		}
		first[0] = nil
		if again := snap.TopKRange(k, 0, 0); !reflect.DeepEqual(again, want) {
			t.Fatalf("k=%d: the answer changed after the caller rewrote the previous one", k)
		}
	}
}

// TestReadAllocs gates the read path's allocations per request through
// the handler (the request and its recorder included): a top-k list walks
// the epoch's ranking instead of sorting the set, and a single
// containment query is parsed in memory, with no scanner buffer (15 160
// bytes through bufio's 4 KiB one).
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const (
		topKCeiling     = 84    // allocations per /v1/patterns?k=10&min_edges=3: 76 measured + 10 %
		containsCeiling = 12100 // bytes per planned /v1/contains: 10 980 measured + 10 %
	)
	db := datagen.Generate(datagen.Config{D: 200, T: 10, N: 8, L: 20, I: 4, Seed: 1})
	s := mustStart(t, db, Config{Mine: core.Options{MinSupport: len(db) / 20, K: 2}})
	h := s.Handler()

	// A planned query: a mined pattern of three edges, as graph text.
	var body string
	set := s.Snapshot().Res.Patterns
	for _, key := range set.Keys() {
		if p := set[key]; p.Size() == 3 {
			var b strings.Builder
			if err := graph.WriteDatabase(&b, graph.Database{p.Code.Graph()}); err != nil {
				t.Fatal(err)
			}
			body = b.String()
			break
		}
	}
	if body == "" {
		t.Fatal("no three-edge pattern to query")
	}
	serve := func(method, target, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		if method == http.MethodPost && !strings.Contains(rec.Body.String(), `"plan_hit": 1`) {
			t.Fatalf("contains was not served by a plan: %s", rec.Body)
		}
	}
	topK := func() { serve(http.MethodGet, "/v1/patterns?k=10&min_edges=3", "") }
	contains := func() { serve(http.MethodPost, "/v1/contains", body) }
	topK()
	contains()

	allocs := testing.AllocsPerRun(50, topK)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		contains()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("top-k: %.0f allocations; contains: %d bytes", allocs, bytes)
	if allocs > topKCeiling {
		t.Errorf("/v1/patterns?k=10&min_edges=3 allocated %.0f times, want <= %d", allocs, topKCeiling)
	}
	if bytes > containsCeiling {
		t.Errorf("planned /v1/contains allocated %d bytes, want <= %d", bytes, containsCeiling)
	}
}
