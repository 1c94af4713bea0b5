package partminer

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExportsFile is the committed list of exported identifiers under
// internal/ that only tests reference: a deletion list. It may shrink; it
// may not grow.
const testOnlyExportsFile = "testdata/test_only_exports.txt"

// TestNoTestOnlyExports lists the exported identifiers under internal/ —
// package-level names and the exported methods of exported types, struct
// fields aside — that no non-test file of the module references, and
// compares that list both ways with testdata/test_only_exports.txt. A
// method that satisfies an interface the module meets is skipped: it is
// reached through the interface. benchmark/, cmd/ and examples/ count as
// callers like any other package.
//
// Every non-test package is type-checked from source in `go list -deps`
// order, with the standard library read from the export data `go list
// -export` names.
func TestNoTestOnlyExports(t *testing.T) {
	got := testOnlyExports(t)
	want := readExportList(t)
	for _, key := range got {
		if !slices.Contains(want, key) {
			t.Errorf("%s is exported but only tests reference it: unexport it, delete it or give it a caller", key)
		}
	}
	for _, key := range want {
		if !slices.Contains(got, key) {
			t.Errorf("%s has a non-test caller now, or is gone: drop it from %s", key, testOnlyExportsFile)
		}
	}
}

func readExportList(t *testing.T) []string {
	f, err := os.Open(testOnlyExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			keys = append(keys, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// testOnlyExports returns the sorted keys ("pkg.Name" or
// "pkg.Type.Method", pkg relative to internal/) of the exported
// identifiers under internal/ no non-test file references.
func testOnlyExports(t *testing.T) []string {
	const module, internal = "partminer", "partminer/internal/"
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list -export -deps: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	var declared []*types.Package
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		if strings.HasPrefix(p.ImportPath, internal) {
			declared = append(declared, tp)
		}
	}
	// Named interfaces of every package the module reaches, the standard
	// library's included (fmt.Stringer, gob.GobEncoder, http.Handler, ...).
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range checked {
		if strings.HasPrefix(p.Path(), module) {
			walk(p)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	satisfies := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}
	var keys []string
	for _, p := range declared {
		rel := strings.TrimPrefix(p.Path(), internal)
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				keys = append(keys, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m) {
					keys = append(keys, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
