package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"partminer/internal/exec"
)

func TestRegistryObserverAggregates(t *testing.T) {
	r := NewRegistry("")
	end := exec.StageTimer(r, "partition")
	end()
	for i := 0; i < 3; i++ {
		r.StageEnd("merge", 2*time.Millisecond)
	}
	exec.Count(r, "iso", 5)
	exec.Count(r, "iso", 7)
	exec.Count(r, "zero", 0) // skipped

	v := r.View()
	if len(v.Stages) != 2 || v.Stages[0].Stage != "partition" || v.Stages[1].Stage != "merge" {
		t.Fatalf("stages = %+v", v.Stages)
	}
	if v.Stages[1].Calls != 3 || v.Stages[1].Total != 6*time.Millisecond {
		t.Fatalf("merge stat = %+v", v.Stages[1])
	}
	if got := v.Stage("merge").Total; got != 6*time.Millisecond {
		t.Fatalf("Stage(merge).Total = %v", got)
	}
	if v.Counters["iso"] != 12 {
		t.Fatalf("iso counter = %d", v.Counters["iso"])
	}
	if _, ok := v.Counters["zero"]; ok {
		t.Fatal("zero-delta counter recorded")
	}
	if v.String() == "" {
		t.Fatal("empty render")
	}
}

// TestRegistryObserverConcurrent reports from 8 goroutines at once — a
// shared stage and counter, plus a stage and counter of each goroutine's
// own so registrations race lookups. Totals must be exact; under -race
// this is the proof the seam needs no lock.
func TestRegistryObserverConcurrent(t *testing.T) {
	r := NewRegistry("t_")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("unit.%d", g)
			for j := 0; j < 100; j++ {
				end := exec.StageTimer(r, "s")
				r.Counter("n", 1)
				end()
				r.StageEnd(own, time.Millisecond)
				r.Counter(own, 2)
			}
		}(g)
	}
	wg.Wait()
	v := r.View()
	if got := v.Counters["n"]; got != 800 {
		t.Fatalf("counter n = %d, want 800", got)
	}
	if got := v.Stage("s").Calls; got != 800 {
		t.Fatalf("stage calls = %d, want 800", got)
	}
	for g := 0; g < 8; g++ {
		own := fmt.Sprintf("unit.%d", g)
		if st := v.Stage(own); st.Calls != 100 || st.Total != 100*time.Millisecond {
			t.Fatalf("%s = %+v, want 100 calls / 100ms", own, st)
		}
		if got := v.Counters[own]; got != 200 {
			t.Fatalf("counter %s = %d, want 200", own, got)
		}
	}
	// The eight per-unit stages are one family on the wire.
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "t_unit_mine_seconds_count 800\n") {
		t.Fatalf("exposition does not sum unit.<i> into t_unit_mine_seconds:\n%s", b.String())
	}
}

func TestRegistryView(t *testing.T) {
	r := NewRegistry("")
	r.StageStart("partition")
	r.StageEnd("partition", 3*time.Millisecond)
	r.StageStart("merge")
	r.StageEnd("merge", 5*time.Millisecond)
	r.StageEnd("merge", 2*time.Millisecond)
	r.Counter("merge.candidates", 7)
	r.Counter("merge.candidates", 4)
	r.Counter("units.degraded", 1)

	v := r.View()
	if len(v.Stages) != 2 || v.Stages[0].Stage != "partition" || v.Stages[1].Calls != 2 {
		t.Fatalf("unexpected stages: %+v", v.Stages)
	}
	if v.Stages[1].Total != 7*time.Millisecond {
		t.Fatalf("merge total = %v, want 7ms", v.Stages[1].Total)
	}
	if v.Counters["merge.candidates"] != 11 || v.Counters["units.degraded"] != 1 {
		t.Fatalf("unexpected counters: %v", v.Counters)
	}
	// A view is a copy: mutating it must not reach the registry.
	v.Counters["merge.candidates"] = 0
	if r.View().Counters["merge.candidates"] != 11 {
		t.Fatal("View aliases the registry's counters")
	}
	// A stage only started is listed, in start order, with no calls.
	r.StageStart("index.build")
	if st := r.View().Stages[2]; st.Stage != "index.build" || st.Calls != 0 || st.Total != 0 {
		t.Fatalf("started-only stage = %+v", st)
	}
}

// TestRegistryNilObserver: a nil *Registry smuggled into an exec.Observer
// is a non-nil interface, so every helper calls through to it.
func TestRegistryNilObserver(t *testing.T) {
	var r *Registry
	var o exec.Observer = r
	exec.StageTimer(o, "s")()
	exec.Count(o, "c", 3)
	exec.Multi(o, NewRegistry("")).StageEnd("s", time.Millisecond)
	if v := r.View(); len(v.Stages) != 0 || len(v.Counters) != 0 {
		t.Fatalf("nil registry view = %+v", v)
	}
}

// TestSeamSeriesNames pins the one rule that turns a seam name into an
// exposition family name, and that /metrics and Gather both apply it.
func TestSeamSeriesNames(t *testing.T) {
	for _, c := range []struct{ seam, unit, want string }{
		{"merge.verify", "seconds", "partserve_merge_verify_seconds"},
		{"plan.hit", "total", "partserve_plan_hit_total"},
		{"unit.12", "seconds", "partserve_unit_mine_seconds"},
		{"cluster.ship_bytes", "total", "partserve_cluster_ship_bytes_total"},
		{"units", "seconds", "partserve_units_seconds"},
		{"unit.x", "seconds", "partserve_unit_x_seconds"},
	} {
		if got := seriesName("partserve_", c.seam, c.unit); got != c.want {
			t.Errorf("seriesName(%q, %q) = %q, want %q", c.seam, c.unit, got, c.want)
		}
	}

	r := NewRegistry("partserve_")
	r.StageEnd("unit.0", time.Millisecond)
	r.StageEnd("unit.1", 3*time.Millisecond)
	r.StageEnd("merge.verify", time.Millisecond)
	r.Counter("plan.hit", 3)
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		"# TYPE partserve_unit_mine_seconds histogram",
		`partserve_unit_mine_seconds_bucket{le="0.001"} 1`,
		"partserve_unit_mine_seconds_sum 0.004",
		"partserve_unit_mine_seconds_count 2",
		"partserve_merge_verify_seconds_count 1",
		"# TYPE partserve_plan_hit_total counter",
		"partserve_plan_hit_total 3",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	if n := strings.Count(b.String(), "# TYPE partserve_unit_mine_seconds"); n != 1 {
		t.Fatalf("unit_mine family declared %d times", n)
	}
	got := make(map[string]Sample)
	for _, sm := range r.Gather() {
		got[sm.Name] = sm
	}
	if sm := got["partserve_unit_mine_seconds"]; sm.Count != 2 || sm.Type != "histogram" {
		t.Fatalf("Gather unit_mine = %+v", sm)
	}
	if sm := got["partserve_plan_hit_total"]; sm.Value != 3 || sm.Type != "counter" {
		t.Fatalf("Gather plan_hit = %+v", sm)
	}
}
