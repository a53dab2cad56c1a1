package incentivetag

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCensus logs the numbers the design aim is tracked by: non-test Go
// lines and exported identifiers, over the module outside bench/ (its
// own module) and dot directories, and the exported top-level names in
// internal/ that no other package's non-test file names (bench/
// included), which is where the next unexport audit starts. An exported
// identifier is an exported top-level func, type, const or var name, an
// exported method, or an exported struct field or interface method;
// package main exports nothing. A reference is a selector on an import
// of the declaring package, found with go/ast alone. It asserts no
// ceiling. Run it with
//
//	go test -run '^TestCensus$' -v .
func TestCensus(t *testing.T) {
	lines, exported := 0, 0
	declared := map[string]bool{} // "import/path.Name" of internal/ exports
	named := map[string]bool{}    // the same keys, for names another package's file selects
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		selectedNames(f, named)
		if p == "bench" || strings.HasPrefix(p, "bench"+string(filepath.Separator)) {
			return nil
		}
		lines += fset.File(f.Pos()).LineCount()
		if f.Name.Name != "main" {
			exported += exportedIdents(f)
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(dir, "internal/") {
			for _, name := range exportedTopLevel(f) {
				declared["incentivetag/"+dir+"."+name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unread := 0
	for k := range declared {
		if !named[k] {
			unread++
		}
	}
	t.Logf("non-test Go lines: %d", lines)
	t.Logf("exported identifiers: %d", exported)
	t.Logf("exported internal/ top-level names no other package names: %d", unread)
}

// selectedNames adds "import/path.Name" to named for every selector
// pkg.Name in f whose pkg is one of f's imports of this module.
func selectedNames(f *ast.File, named map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil || !strings.HasPrefix(ip, "incentivetag/") {
			continue
		}
		local := path.Base(ip)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = ip
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				named[imports[x.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
}

// exportedTopLevel lists the exported top-level func, type, const and
// var names f declares.
func exportedTopLevel(f *ast.File) []string {
	var out []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				case *ast.TypeSpec:
					add(s.Name)
				}
			}
		}
	}
	return out
}

// exportedIdents counts the exported identifiers a file declares.
func exportedIdents(f *ast.File) int {
	n := 0
	count := func(ids []*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				n++
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			count([]*ast.Ident{d.Name})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					count(s.Names)
				case *ast.TypeSpec:
					count([]*ast.Ident{s.Name})
					var members *ast.FieldList
					switch typ := s.Type.(type) {
					case *ast.StructType:
						members = typ.Fields
					case *ast.InterfaceType:
						members = typ.Methods
					}
					if members != nil {
						for _, m := range members.List {
							count(m.Names)
						}
					}
				}
			}
		}
	}
	return n
}
