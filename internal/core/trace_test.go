package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"partminer/internal/graph"
	"partminer/internal/obs"
)

// findChild returns the first child of n with the given name.
func findChild(n *obs.Node, name string) *obs.Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestTraceSpanTreeCoversPhases checks the span-tree contract: a traced
// run produces partition/units/merge phase spans with one unit.i child
// per unit, and (serially) the per-unit durations sum to the units
// phase's stage total within 5%.
func TestTraceSpanTreeCoversPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := graph.RandomDatabase(rng, 40, 10, 14, 4, 3)

	c := obs.NewRegistry("")
	tr := obs.NewTracer("test-run")
	ctx := obs.WithSpan(context.Background(), tr.Root())
	res, err := MineContext(ctx, db, Options{MinSupport: 3, K: 4, MaxEdges: 4, Observer: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns mined; trace timings would be vacuous")
	}
	tr.Finish()
	tree := tr.Tree()

	for _, phase := range []string{"partition", "units", "merge"} {
		if findChild(tree, phase) == nil {
			t.Fatalf("trace lacks the %s phase span", phase)
		}
	}

	units := findChild(tree, "units")
	var unitSum time.Duration
	unitCount := 0
	for _, child := range units.Children {
		if strings.HasPrefix(child.Name, "unit.") {
			unitCount++
			unitSum += child.Dur()
		}
	}
	if unitCount != 4 {
		t.Fatalf("units span has %d unit children, want 4", unitCount)
	}

	// Serial run: mining the units IS the units phase, so the per-unit
	// spans must account for the phase's stage total within 5%.
	total := c.View().Stage("units").Total
	if total <= 0 {
		t.Fatal("collector recorded no units stage time")
	}
	if ratio := math.Abs(float64(unitSum-total)) / float64(total); ratio > 0.05 {
		t.Fatalf("unit spans sum to %v but the units stage took %v (%.1f%% off, want <= 5%%)",
			unitSum, total, ratio*100)
	}

	// The merge phase holds the merge-join's merge.root span.
	merge := findChild(tree, "merge")
	found := false
	for _, child := range merge.Children {
		if strings.HasPrefix(child.Name, "merge.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("merge span has no merge.root child: %+v", merge.Children)
	}
}

// TestTraceOffMiningUnchanged pins the off switch: with no span in the
// context, mining must produce the identical pattern set and report the
// same stages as an untraced run.
func TestTraceOffMiningUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := graph.RandomDatabase(rng, 12, 6, 9, 3, 2)
	plain, err := PartMiner(db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("r")
	ctx := obs.WithSpan(context.Background(), tr.Root())
	traced, err := MineContext(ctx, db, Options{MinSupport: 2, K: 2, MaxEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Patterns.Equal(traced.Patterns) {
		t.Fatal("tracing changed the mined pattern set")
	}
}
