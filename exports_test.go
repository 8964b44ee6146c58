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
// The scan is syntactic. A package-level export (function, type, constant
// or variable) counts as used when its own package spells it unqualified
// outside its declaration, or when another file names it through a
// selector pkg.Name whose pkg resolves, through that file's imports, to
// the export's package; the same name spelled in another package does not
// vouch for it. Methods and struct fields are matched by name alone: any
// identifier, selector or composite-literal key spelling the name counts
// (a call of another type's method of the same name vouches for it too).
// That errs towards passing and never reports an export that production
// code really reaches.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exports that legitimately have no production
// caller, each with the reason. A key is "<package dir>.<Name>" for one
// export or "<package dir>" for a whole package, which also exempts the
// package from the importer check.
var exportAllowlist = map[string]string{
	"internal/core.Unwrap":                  "errors.Unwrap interface method",
	"internal/graphx.Less":                  "heap.Interface method",
	"internal/graphx.Swap":                  "heap.Interface method",
	"internal/graphx.Push":                  "heap.Interface method",
	"internal/graphx.Pop":                   "heap.Interface method",
	"internal/serve.MarshalJSON":            "json.Marshaler interface method",
	"internal/serve.UnmarshalJSON":          "json.Unmarshaler interface method",
	"internal/interference":                 "the physical-model oracle other packages' tests check against",
	"internal/rng.Intn":                     "draws that other packages' tests share",
	"internal/rng.Int63n":                   "draws that other packages' tests share",
	"internal/metrics.MarshalDeterministic": "the snapshot comparison other packages' tests share",
	"internal/pcr.HexagonInterferenceBound": "the proof's bound, checked against explicit packings",
	"internal/sim.Millisecond":              "virtual-time constants other packages' tests share",
	"internal/sim.Second":                   "virtual-time constants other packages' tests share",
}

func TestExportsReachedFromProduction(t *testing.T) {
	sc, err := scanReach(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.decls) == 0 {
		t.Fatal("found no exported declarations under internal/: is the test running from the repository root?")
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range sc.decls {
		if sc.reached(d) {
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
	for dir := range sc.packages {
		if sc.imported[dir] {
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

// TestExportsResolvedThroughImports: two packages export the same name and
// production code names only one of them through its import, and a third
// export shares its name with a standard-library constant. A scan that
// matched names alone would count all of them as used; this one must
// report the other two. A method stays matched by name.
func TestExportsResolvedThroughImports(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte("package a\n\nimport \"time\"\n\nconst Second = 1\n\nfunc Open() { _ = time.Second }\n")},
		"internal/b/b.go": {Data: []byte("package b\n\ntype T struct{}\n\nfunc Open() {}\n\nfunc (T) Close() {}\n")},
		"cmd/x/main.go": {Data: []byte("package main\n\nimport (\n\tbee \"addcrn/internal/b\"\n\t\"addcrn/internal/a\"\n)\n\n" +
			"func main() { a.Open(); var t bee.T; _ = t; f(nil) }\n\nfunc f(c interface{ Close() }) { c.Close() }\n")},
	}
	sc, err := scanReach(fsys)
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range sc.decls {
		if !sc.reached(d) {
			unused = append(unused, d.dir+"."+d.name)
		}
	}
	sort.Strings(unused)
	if want := []string{"internal/a.Second", "internal/b.Open"}; !slices.Equal(unused, want) {
		t.Fatalf("unreached exports %v, want %v", unused, want)
	}
}

// reachScan is what the reachability check collects from a source tree's
// non-test Go files.
type reachScan struct {
	decls    []exportDecl    // exported declarations under internal/
	names    map[string]bool // names spelled outside a declaration, for methods and fields
	pkgUses  map[string]bool // "<dir>.<Name>": package-level names reached in their own package or through an import
	packages map[string]bool // checked package dirs under internal/
	imported map[string]bool // package dirs a production file outside them imports
}

// reached reports whether non-test code names export d.
func (sc *reachScan) reached(d exportDecl) bool {
	if d.member {
		return sc.names[d.name]
	}
	return sc.pkgUses[d.dir+"."+d.name]
}

func scanReach(fsys fs.FS) (*reachScan, error) {
	sc := &reachScan{names: map[string]bool{}, pkgUses: map[string]bool{}, packages: map[string]bool{}, imported: map[string]bool{}}
	fset := token.NewFileSet() // shared so positions stay distinct
	err := fs.WalkDir(fsys, ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(file)
		// Packages named like net/http/httptest are test support: only
		// tests import them, so their exports are exempt.
		testSupport := strings.HasSuffix(dir, "test")
		checked := strings.HasPrefix(dir, "internal/") && !testSupport
		if checked {
			sc.packages[dir] = true
		}
		// imports maps the name this file refers to each import by to the
		// package's dir, or to "" outside the repository.
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := path.Base(ipath)
			if v := strings.TrimPrefix(name, "v"); v != name && strings.Trim(v, "0123456789") == "" {
				name = path.Base(path.Dir(ipath)) // math/rand/v2 is package rand
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			target, ok := strings.CutPrefix(ipath, "addcrn/")
			imports[name] = target
			if ok && target != dir && !testSupport {
				sc.imported[target] = true
			}
		}
		declared := map[*ast.Ident]bool{}
		declare := func(ids []*ast.Ident, member bool) {
			for _, id := range ids {
				declared[id] = true
				if checked && id.IsExported() {
					sc.decls = append(sc.decls, exportDecl{dir, id.Name, fset.Position(id.Pos()).String(), member})
				}
			}
		}
		pkgLevel, members := topLevelDecls(f)
		declare(pkgLevel, false)
		declare(members, true)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if target, ok := imports[x.Name]; ok {
						if target != "" {
							sc.pkgUses[target+"."+n.Sel.Name] = true
						}
						return false
					}
				}
			case *ast.Ident:
				if !declared[n] {
					sc.names[n.Name] = true
					sc.pkgUses[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return sc, err
}

// exportDecl is one exported declaration; member marks a method or a
// struct field.
type exportDecl struct {
	dir, name, pos string
	member         bool
}

// topLevelDecls returns the identifiers f declares at top level: its
// functions, types, constants and variables (pkgLevel), and its methods
// and the fields of its top-level struct types (members).
func topLevelDecls(f *ast.File) (pkgLevel, members []*ast.Ident) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv != nil {
				members = append(members, decl.Name)
			} else {
				pkgLevel = append(pkgLevel, decl.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					pkgLevel = append(pkgLevel, spec.Name)
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							members = append(members, field.Names...)
						}
					}
				case *ast.ValueSpec:
					pkgLevel = append(pkgLevel, spec.Names...)
				}
			}
		}
	}
	return pkgLevel, members
}
