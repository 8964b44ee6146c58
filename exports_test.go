package addcrn

// The reachability check. Every exported top-level identifier and exported
// struct field declared under internal/ must be named somewhere in the
// repository's non-test Go code other than at a declaration: in cmd/,
// examples/, the addcbench module or another production file. An export
// only tests reach belongs in a _test.go file (or in a package named as
// test support), so this check fails when one appears. It also fails on an
// allowlist entry that no longer matches, so the list cannot go stale.
//
// The same holds for whole packages: every package under internal/ must be
// imported by a non-test file outside itself (test-support packages do not
// count as importers), so a package only tests reach fails too, even when
// its exports share their names with production code elsewhere.
//
// The scan is syntactic and deliberately coarse: it matches names, not
// resolved objects, so a name counts as used when any identifier, selector
// or composite-literal key in non-test code spells it outside a top-level
// declaration (a call of another type's method of the same name vouches
// for it too). That errs towards passing and never reports an export that
// production code really reaches.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exports that legitimately have no production
// caller, each with the reason. A key is "<package dir>.<Name>" for one
// export or "<package dir>" for a whole package, which also exempts the
// package from the importer check.
var exportAllowlist = map[string]string{
	"internal/core.Unwrap":                  "errors.Unwrap interface method",
	"internal/graphx.Less":                  "heap.Interface method",
	"internal/graphx.Swap":                  "heap.Interface method",
	"internal/serve.MarshalJSON":            "json.Marshaler interface method",
	"internal/serve.UnmarshalJSON":          "json.Unmarshaler interface method",
	"internal/interference":                 "the physical-model oracle other packages' tests check against",
	"internal/rng.Intn":                     "draws that other packages' tests share",
	"internal/rng.Int63n":                   "draws that other packages' tests share",
	"internal/metrics.MarshalDeterministic": "the snapshot comparison other packages' tests share",
	"internal/pcr.HexagonInterferenceBound": "the proof's bound, checked against explicit packings",
}

func TestExportsReachedFromProduction(t *testing.T) {
	uses := map[string]bool{}     // names spelled in non-test code outside a declaration
	var decls []exportDecl        // exported declarations under internal/
	packages := map[string]bool{} // checked package dirs under internal/
	imported := map[string]bool{} // package dirs a production file outside them imports
	fset := token.NewFileSet()    // shared so positions stay distinct
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		// Packages named like net/http/httptest are test support: only
		// tests import them, so their exports are exempt.
		testSupport := strings.HasSuffix(dir, "test")
		checked := strings.HasPrefix(dir, "internal/") && !testSupport
		if checked {
			packages[dir] = true
		}
		for _, imp := range f.Imports {
			target, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "addcrn/")
			if ok && target != dir && !testSupport {
				imported[target] = true
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range topLevelDecls(f) {
			declared[d] = true
			if checked && d.IsExported() {
				decls = append(decls, exportDecl{dir, d.Name, fset.Position(d.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/: is the test running from the repository root?")
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] {
			continue
		}
		key := d.dir + "." + d.name
		if _, ok := exportAllowlist[key]; ok {
			allowed[key] = true
			continue
		}
		if _, ok := exportAllowlist[d.dir]; ok {
			allowed[d.dir] = true
			continue
		}
		unused = append(unused, d.pos+": "+key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code names it; move it into a _test.go file or delete it", u)
	}
	var orphans []string
	for dir := range packages {
		if imported[dir] {
			continue
		}
		if _, ok := exportAllowlist[dir]; ok {
			allowed[dir] = true
			continue
		}
		orphans = append(orphans, dir)
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("package %s is imported by no non-test file outside it; move it into its callers' _test.go files or delete it", dir)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s matches no unreached export; drop it", key)
		}
	}
}

type exportDecl struct {
	dir, name, pos string
}

// topLevelDecls returns the identifiers f declares at top level: its
// functions, methods, types, constants and variables, and the fields of its
// top-level struct types.
func topLevelDecls(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, decl.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, spec.Name)
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							out = append(out, field.Names...)
						}
					}
				case *ast.ValueSpec:
					out = append(out, spec.Names...)
				}
			}
		}
	}
	return out
}
