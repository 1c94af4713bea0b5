package pattern

import (
	"math/rand"
	"sort"
	"testing"
)

// tidModel is the trivially-correct reference: a map of member tids.
type tidModel map[int]bool

func (m tidModel) slice() []int {
	out := make([]int, 0, len(m))
	for tid := range m {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

func (m tidModel) intersect(o tidModel) tidModel {
	out := tidModel{}
	for tid := range m {
		if o[tid] {
			out[tid] = true
		}
	}
	return out
}

func (m tidModel) union(o tidModel) tidModel {
	out := tidModel{}
	for tid := range m {
		out[tid] = true
	}
	for tid := range o {
		out[tid] = true
	}
	return out
}

func (m tidModel) minus(o tidModel) tidModel {
	out := tidModel{}
	for tid := range m {
		if !o[tid] {
			out[tid] = true
		}
	}
	return out
}

func (m tidModel) equal(o tidModel) bool {
	if len(m) != len(o) {
		return false
	}
	for tid := range m {
		if !o[tid] {
			return false
		}
	}
	return true
}

func randomPair(rng *rand.Rand, maxTID int) (*TIDSet, tidModel) {
	// Random capacity decouples word-length from content so length
	// mismatches (short vs long operands, trailing zero words) are
	// exercised on every op.
	set := NewTIDSet(rng.Intn(maxTID + 1))
	model := tidModel{}
	for n := rng.Intn(maxTID); n > 0; n-- {
		tid := rng.Intn(maxTID)
		set.Add(tid)
		model[tid] = true
	}
	return set, model
}

func checkSame(t *testing.T, what string, set *TIDSet, model tidModel) {
	t.Helper()
	got, want := set.Slice(), model.slice()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v want %v", what, got, want)
		}
	}
	if set.Count() != len(model) {
		t.Fatalf("%s: Count=%d want %d", what, set.Count(), len(model))
	}
}

// TestTIDSetDifferential drives TIDSet and the map model through the
// same random operation stream across 50 seeds; any divergence in
// membership, cardinality, or iteration order is a kernel bug.
func TestTIDSetDifferential(t *testing.T) {
	const maxTID = 400
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set, model := randomPair(rng, maxTID)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); op {
			case 0: // Add, including grow-on-Add past current capacity
				tid := rng.Intn(maxTID)
				set.Add(tid)
				model[tid] = true
			case 1: // Remove, possibly absent
				tid := rng.Intn(maxTID)
				set.Remove(tid)
				delete(model, tid)
			case 2: // Intersect / IntersectWith / IntersectCount agree
				o, om := randomPair(rng, maxTID)
				want := model.intersect(om)
				if got := set.IntersectCount(o); got != len(want) {
					t.Fatalf("seed %d step %d: IntersectCount=%d want %d", seed, step, got, len(want))
				}
				checkSame(t, "Intersect", set.Intersect(o), want)
				set.IntersectWith(o)
				model = want
			case 3: // Union / UnionWith agree
				o, om := randomPair(rng, maxTID)
				want := model.union(om)
				checkSame(t, "Union", set.Union(o), want)
				set.UnionWith(o)
				model = want
			case 4: // Minus / MinusWith / AndNotCount agree
				o, om := randomPair(rng, maxTID)
				want := model.minus(om)
				if got := set.AndNotCount(o); got != len(want) {
					t.Fatalf("seed %d step %d: AndNotCount=%d want %d", seed, step, got, len(want))
				}
				checkSame(t, "Minus", set.Minus(o), want)
				set.MinusWith(o)
				model = want
			case 5: // Equal must ignore trailing zero words
				o, om := randomPair(rng, maxTID)
				if got, want := set.Equal(o), model.equal(om); got != want {
					t.Fatalf("seed %d step %d: Equal=%v want %v", seed, step, got, want)
				}
				padded := NewTIDSet(4 * maxTID) // longer backing array, same content
				set.ForEachUntil(func(tid int) bool { padded.Add(tid); return true })
				if !set.Equal(padded) || !padded.Equal(set) {
					t.Fatalf("seed %d step %d: Equal not capacity-blind", seed, step)
				}
			case 6: // a full ForEachUntil walk matches Slice; it stops on demand
				var walked []int
				set.ForEachUntil(func(tid int) bool { walked = append(walked, tid); return true })
				want := model.slice()
				if len(walked) != len(want) {
					t.Fatalf("seed %d step %d: ForEachUntil %v want %v", seed, step, walked, want)
				}
				for i := range walked {
					if walked[i] != want[i] {
						t.Fatalf("seed %d step %d: ForEachUntil %v want %v", seed, step, walked, want)
					}
				}
				stop := rng.Intn(len(want) + 1)
				var prefix []int
				done := set.ForEachUntil(func(tid int) bool {
					if len(prefix) == stop {
						return false
					}
					prefix = append(prefix, tid)
					return true
				})
				if wantDone := stop >= len(want); done != wantDone {
					t.Fatalf("seed %d step %d: ForEachUntil done=%v want %v", seed, step, done, wantDone)
				}
				if len(prefix) > stop {
					t.Fatalf("seed %d step %d: ForEachUntil overran stop=%d", seed, step, stop)
				}
			case 7: // IntersectCountMulti vs chained pairwise on the model
				k := 2 + rng.Intn(4)
				sets := []*TIDSet{set}
				acc := model
				for i := 1; i < k; i++ {
					o, om := randomPair(rng, maxTID)
					sets = append(sets, o)
					acc = acc.intersect(om)
				}
				if got := IntersectCountMulti(sets); got != len(acc) {
					t.Fatalf("seed %d step %d: IntersectCountMulti=%d want %d", seed, step, got, len(acc))
				}
			case 8: // Contains spot checks
				tid := rng.Intn(maxTID)
				if set.Contains(tid) != model[tid] {
					t.Fatalf("seed %d step %d: Contains(%d)=%v want %v", seed, step, tid, set.Contains(tid), model[tid])
				}
			case 9: // Clone is independent: mutating it leaves t alone
				c := set.Clone()
				checkSame(t, "Clone", c, model)
				c.Add(rng.Intn(maxTID))
				c.Remove(rng.Intn(maxTID))
				checkSame(t, "Clone source", set, model)
			}
			checkSame(t, "state", set, model)
		}
	}
}

func TestIntersectCountMultiEdgeCases(t *testing.T) {
	if got := IntersectCountMulti(nil); got != 0 {
		t.Fatalf("empty slice: got %d want 0", got)
	}
	s := NewTIDSet(100)
	s.Add(3)
	s.Add(70)
	if got := IntersectCountMulti([]*TIDSet{s}); got != 2 {
		t.Fatalf("single set: got %d want 2", got)
	}
	empty := NewTIDSet(0)
	if got := IntersectCountMulti([]*TIDSet{s, empty}); got != 0 {
		t.Fatalf("with empty: got %d want 0", got)
	}
}

// TestForEachZeroAlloc pins the reason ForEachUntil exists: iterating a
// hot TID set, even with a capturing closure, must not allocate.
func TestForEachZeroAlloc(t *testing.T) {
	set := NewTIDSet(4096)
	for tid := 0; tid < 4096; tid += 3 {
		set.Add(tid)
	}
	sum := 0
	allocs := testing.AllocsPerRun(100, func() {
		set.ForEachUntil(func(tid int) bool { sum += tid; return true })
	})
	if allocs != 0 {
		t.Fatalf("full ForEachUntil walk allocated %.1f/run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		set.ForEachUntil(func(tid int) bool { sum += tid; return tid < 2000 })
	})
	if allocs != 0 {
		t.Fatalf("ForEachUntil allocated %.1f/run, want 0", allocs)
	}
}
