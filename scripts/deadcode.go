//go:build ignore

// Deadcode lists every exported package-level func and type in internal/
// that no non-test .go file of the module reads, benchmark/ included. A
// name counts as read when another file selects it through an import
// (pkg.Name) or a file of its own package mentions it outside its own
// declaration and method receivers. Run from the repository root:
//
//	go run scripts/deadcode.go
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type name struct{ dir, ident string }

func main() {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by directory, non-test files only
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		files[filepath.Dir(p)] = append(files[filepath.Dir(p)], f)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}

	declared := map[name]bool{}
	own := map[*ast.Ident]bool{} // declaring identifiers and receiver types
	for dir, dirFiles := range files {
		if !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			continue
		}
		for _, f := range dirFiles {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool { own[asIdent(n)] = true; return true })
					} else if d.Name.IsExported() {
						declared[name{dir, d.Name.Name}] = true
						own[d.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							declared[name{dir, ts.Name.Name}] = true
							own[ts.Name] = true
						}
					}
				}
			}
		}
	}

	read := map[name]bool{}
	for dir, dirFiles := range files {
		for _, f := range dirFiles {
			imports := map[string]string{} // local name -> directory
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(p, "l3/internal/") {
					continue
				}
				local := path.Base(p)
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = filepath.FromSlash(strings.TrimPrefix(p, "l3/"))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					own[n.Sel] = true // a field, method or another package's name
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						read[name{imports[x.Name], n.Sel.Name}] = true
					}
				case *ast.Ident:
					if !own[n] {
						read[name{dir, n.Name}] = true
					}
				}
				return true
			})
		}
	}

	var out []string
	for n := range declared {
		if !read[n] {
			out = append(out, filepath.ToSlash(n.dir)+"."+n.ident)
		}
	}
	sort.Strings(out)
	fmt.Print(strings.Join(append(out, ""), "\n"))
}

func asIdent(n ast.Node) *ast.Ident { id, _ := n.(*ast.Ident); return id }
