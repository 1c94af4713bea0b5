package bench

import (
	"strings"
	"testing"
)

// tinyScale keeps the harness test fast; correctness of the underlying
// miners is covered elsewhere.
var tinyScale = Scale{D50k: 60, D100k: 60, MaxEdges: 3}

func TestFigureNamesResolve(t *testing.T) {
	names := Figures()
	if len(names) != 10 {
		t.Fatalf("expected 10 figures, got %d: %v", len(names), names)
	}
	if _, err := Figure("nope", tinyScale); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestFigureTablesRender(t *testing.T) {
	// Run the two cheapest figures end to end and sanity-check the table
	// structure and rendering.
	for _, name := range []string{"17a", "16a"} {
		tab, err := Figure(name, tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		for _, r := range tab.Rows {
			if len(r.Seconds) != len(tab.Columns) {
				t.Fatalf("%s: row %q has %d cells for %d columns", name, r.X, len(r.Seconds), len(tab.Columns))
			}
			for _, s := range r.Seconds {
				if s < 0 {
					t.Fatalf("%s: negative time", name)
				}
			}
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		out := sb.String()
		if !strings.Contains(out, tab.Name) || !strings.Contains(out, tab.Columns[0]) {
			t.Errorf("%s: render missing headers:\n%s", name, out)
		}
	}
}

func TestDatasetCache(t *testing.T) {
	cfg := base50k(tinyScale)
	a := dataset(cfg)
	b := dataset(cfg)
	if len(a) != tinyScale.D50k {
		t.Fatalf("dataset size %d; want %d", len(a), tinyScale.D50k)
	}
	if &a[0] != &b[0] {
		t.Error("dataset cache should return the same database")
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s.D50k != DefaultScale.D50k || s.D100k != DefaultScale.D100k {
		t.Errorf("defaults not applied: %+v", s)
	}
}
