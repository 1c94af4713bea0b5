package partminer

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportFences pins the module's dependency fences over `go list
// -deps`: the execution substrate stays a leaf, the query path does not
// link the plan executor it never runs, and the serving binaries do not
// link the baseline miners or the benchmark harness.
func TestImportFences(t *testing.T) {
	const internal = "partminer/internal/"
	for _, fence := range []struct {
		pkg      string
		mustNot  []string // import paths under internal/ that pkg may not reach
		leafOnly bool     // pkg may reach no other internal package at all
	}{
		{pkg: "./internal/exec", leafOnly: true},
		{pkg: "./internal/query", mustNot: []string{"plan"}},
		{pkg: "./cmd/partserved", mustNot: []string{"fsg", "adimine", "storage", "bench"}},
		{pkg: "./cmd/partworker", mustNot: []string{"fsg", "adimine", "storage", "bench"}},
	} {
		out, err := exec.Command("go", "list", "-deps", fence.pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", fence.pkg, err)
		}
		self := "partminer/" + strings.TrimPrefix(fence.pkg, "./")
		for _, dep := range strings.Fields(string(out)) {
			name, ok := strings.CutPrefix(dep, internal)
			if !ok || dep == self {
				continue
			}
			if fence.leafOnly {
				t.Errorf("%s must not depend on any other internal package; it reaches %s", fence.pkg, dep)
			}
			for _, banned := range fence.mustNot {
				if name == banned {
					t.Errorf("%s must not reach %s", fence.pkg, dep)
				}
			}
		}
	}
}
