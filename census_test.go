package incentivetag

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestCensus logs the two numbers the design aim is tracked by: non-test
// Go lines and exported identifiers, over the module outside bench/ (its
// own module) and dot directories. An exported identifier is an exported
// top-level func, type, const or var name, an exported method, or an
// exported struct field or interface method; package main exports
// nothing. It asserts no ceiling. Run it with
//
//	go test -run '^TestCensus$' -v .
func TestCensus(t *testing.T) {
	lines, exported := 0, 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		lines += fset.File(f.Pos()).LineCount()
		if f.Name.Name != "main" {
			exported += exportedIdents(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test Go lines: %d", lines)
	t.Logf("exported identifiers: %d", exported)
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
