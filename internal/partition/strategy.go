package partition

import (
	"fmt"
	"reflect"
	"strings"
)

// strategies is the fixed table of partition strategies, sorted by name:
// the names the CLIs' -criteria flag accepts and snapshots record. The
// paper's λ-weight criteria and the METIS baseline sit alongside the
// structural families (vertex-cut, community, BFS-expansion); strategy
// choice never changes mining results — the merge-join re-derives the
// exact frequent set from the database for any bisection — only
// partition quality and therefore cost.
var strategies = []struct {
	name string
	b    Bisector
}{
	{"bfs", BFSExpansion{}},
	{"community", Community{}},
	{"metis", Metis{}},
	{"partition1", Partition1},
	{"partition2", Partition2},
	{"partition3", Partition3},
	{"vertexcut", VertexCut{}},
}

// ByName returns the named strategy, or an error that lists every
// strategy name (the CLIs surface it verbatim on a bad -criteria).
func ByName(name string) (Bisector, error) {
	for _, s := range strategies {
		if s.name == name {
			return s.b, nil
		}
	}
	return nil, fmt.Errorf("partition: unknown strategy %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the strategy names, sorted.
func Names() []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.name
	}
	return out
}

// NameOf resolves a bisector back to its strategy name by value, so a
// bare Partition3 is the "partition3" strategy. It reports false for
// custom bisectors, including table types with non-default parameters
// and any bisector of non-comparable dynamic type (funcs, slices).
func NameOf(b Bisector) (string, bool) {
	if t := reflect.TypeOf(b); t == nil || !t.Comparable() {
		return "", false
	}
	for _, s := range strategies {
		if s.b == b {
			return s.name, true
		}
	}
	return "", false
}
