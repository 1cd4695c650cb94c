package dfdeques_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedInternalDefinitions type-checks the module's non-test
// files and fails if a package-level func, type, const or var under
// internal/ is referenced by none of them: a definition only its own
// tests (or a bench/ probe, which is a module of its own) still call is a
// mechanism nothing runs. Methods are out of scope — interface
// satisfaction hides their uses.
func TestNoUnreferencedInternalDefinitions(t *testing.T) {
	// "dfdeques/internal/pkg.Name" → why it stays although nothing uses it.
	allow := map[string]string{
		"dfdeques/internal/dag.SerialFor":      "builder pinned by TestSerialForIsFlat",
		"dfdeques/internal/workload.Quicksort": "the paper's §2.1 example, pinned by TestQuicksort*",
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	// Objects are matched by name, not identity: a package is checked once
	// here and once more by the importer on behalf of its dependents.
	key := func(o types.Object) string {
		if o == nil || o.Pkg() == nil || o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return o.Pkg().Path() + "." + o.Name()
	}
	defs := map[string]token.Pos{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir == "bench" || (dir != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		var files []*ast.File
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		path := filepath.ToSlash(filepath.Join("dfdeques", dir))
		if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
			return err
		}
		for id, o := range info.Defs {
			if k := key(o); strings.HasPrefix(k, "dfdeques/internal/") && id.Name != "_" && id.Name != "init" {
				defs[k] = id.Pos()
			}
		}
		for _, o := range info.Uses {
			used[key(o)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for k, pos := range defs {
		if !used[k] && allow[k] == "" {
			dead = append(dead, fset.Position(pos).String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no reference outside _test.go files", d)
	}
	for k := range allow {
		if _, ok := defs[k]; !ok || used[k] {
			t.Errorf("allowlist entry %s is stale", k)
		}
	}
}
