package partminer

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"partminer/internal/codec"
)

// TestMineParallelSerialByteIdentical pins the determinism guarantee of
// the execution layer: a parallel run must be indistinguishable from a
// serial one, down to the serialized bytes of the pattern set.
func TestMineParallelSerialByteIdentical(t *testing.T) {
	db := Generate(GeneratorConfig{D: 80, N: 10, T: 12, I: 5, L: 30, Seed: 7})
	opts := Options{MinSupport: AbsoluteSupport(db, 0.05), K: 4, MaxEdges: 4}

	serial, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	opts.Workers = 4
	par, err := Mine(db, opts)
	if err != nil {
		t.Fatal(err)
	}

	sb, err := codec.EncodeSet(serial.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := codec.EncodeSet(par.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Fatalf("parallel pattern set differs from serial:\n%v", serial.Patterns.Diff(par.Patterns))
	}
	if len(serial.Degraded) != 0 || len(par.Degraded) != 0 {
		t.Fatalf("unexpected degraded units: %v / %v", serial.Degraded, par.Degraded)
	}
}

// explosiveDB is a workload that would mine for a very long time without
// a bound: uniformly-labeled cliques have exponentially many frequent
// subgraphs, so an uncancelled unbounded run takes (at least) minutes.
func explosiveDB() Database {
	g := NewGraph(0)
	const n = 10
	for i := 0; i < n; i++ {
		g.AddVertex(0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j, 0)
		}
	}
	return Database{g, g.Clone(), g.Clone(), g.Clone()}
}

// TestMineContextCancelReturnsPromptly cancels an explosive run shortly
// after it starts and requires MineContext to unwind with ctx.Err()
// within a small bound — the cooperative-cancellation contract.
func TestMineContextCancelReturnsPromptly(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		db := explosiveDB()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(100 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := MineContext(ctx, db, Options{MinSupport: 2, K: 2, Parallel: parallel})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: err = %v (res=%v); want context.Canceled", parallel, err, res)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("parallel=%v: cancellation took %v; want prompt unwind", parallel, elapsed)
		}
	}
}

// TestMineContextPreCancelled: a context cancelled before the call must
// short-circuit without mining at all.
func TestMineContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := MineContext(ctx, explosiveDB(), Options{MinSupport: 2, K: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled call took %v", elapsed)
	}
}

// TestMineContextDeadline: deadlines behave like cancellation and surface
// as context.DeadlineExceeded.
func TestMineContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MineContext(ctx, explosiveDB(), Options{MinSupport: 2, K: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline unwind took %v", elapsed)
	}
}

// TestMineIncrementalContextCancel covers the incremental entry point.
func TestMineIncrementalContextCancel(t *testing.T) {
	db := Generate(GeneratorConfig{D: 40, N: 8, T: 10, I: 4, L: 30, Seed: 11})
	res, err := Mine(db, Options{MinSupport: 4, K: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	updated := ApplyUpdates(db, UpdateConfig{Fraction: 0.3, Seed: 12, N: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineIncrementalContext(ctx, db, updated, res); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

// TestPhaseCollectorReportsStages: a mining run reports its per-phase
// breakdown (§5 evaluation tables) into the attached Observer.
func TestPhaseCollectorReportsStages(t *testing.T) {
	db := Generate(GeneratorConfig{D: 40, N: 8, T: 10, I: 4, L: 30, Seed: 13})
	col := NewPhaseCollector()
	_, err := Mine(db, Options{MinSupport: 4, K: 2, MaxEdges: 3, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	view := col.View()
	for _, stage := range []string{"partition", "units", "merge"} {
		if view.Stage(stage).Total <= 0 {
			t.Errorf("stage %q not reported", stage)
		}
	}
	if view.Counters["merge.candidates"] == 0 {
		t.Error("merge-join counters not reported")
	}
	if view.String() == "" {
		t.Error("empty collector rendering")
	}
}
