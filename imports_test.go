package partminer

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestImportFences pins the module's dependency fences over `go list
// -deps`: the execution substrate stays a leaf, the cover pruner and the
// codec stay functions of three data packages, and the serving binaries
// do not link the baseline miners or the benchmark harness.
func TestImportFences(t *testing.T) {
	const internal = "partminer/internal/"
	for _, fence := range []struct {
		pkg     string
		mustNot []string // import paths under internal/ that pkg may not reach
		only    []string // when non-nil, the only ones it may reach
	}{
		{pkg: "./internal/exec", only: []string{}},
		// decomp imports dfscode, graph and pattern; exec and isomorph are
		// what those bring along.
		{pkg: "./internal/decomp", only: []string{"dfscode", "graph", "pattern", "exec", "isomorph"}},
		// The codec knows the wire format and nothing else: the three data
		// packages it converts (plus what they bring).
		{pkg: "./internal/codec", only: []string{"dfscode", "graph", "pattern", "exec", "isomorph"}},
		{pkg: "./cmd/partserved", mustNot: []string{"adimine", "storage", "bench"}},
		{pkg: "./cmd/partworker", mustNot: []string{"adimine", "storage", "bench"}},
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
			if fence.only != nil && !slices.Contains(fence.only, name) {
				t.Errorf("%s may reach only %v under internal/; it reaches %s", fence.pkg, fence.only, dep)
			}
			if slices.Contains(fence.mustNot, name) {
				t.Errorf("%s must not reach %s", fence.pkg, dep)
			}
		}
	}
}
