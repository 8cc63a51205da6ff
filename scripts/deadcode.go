//go:build ignore

// Deadcode lists every exported package-level func and type in internal/
// that no non-test .go file of the module reads, benchmark/ included. A
// name counts as read when another file selects it through an import
// (pkg.Name) or a file of its own package mentions it outside its own
// declaration and method receivers.
//
// It then lists, as dir.Type.Field, every exported field of an exported
// struct type in internal/ that no non-test file outside its package
// writes: a setting that only its own package's defaults, environment or
// grammar set, or a record that only its package fills. A key of a
// pkg.Type{...} literal writes that field. There is no type checking, so an
// assignment through a selector, or a key of an elided-type literal, writes
// every field of that name when its package's own structs have none. Run
// from the repository root:
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
	"slices"
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

	fields := map[name][]string{}            // exported internal/ struct -> its exported fields
	ownField := map[string]map[string]bool{} // dir -> the field names its structs declare
	for dir, dirFiles := range files {
		ownField[dir] = map[string]bool{}
		for _, f := range dirFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								ownField[dir][id.Name] = true
								if typ := (name{dir, ts.Name.Name}); declared[typ] && id.IsExported() {
									fields[typ] = append(fields[typ], id.Name)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	written := map[string]bool{}         // dir.Type.Field keyed in a pkg.Type{...} literal
	nameWritten := map[string][]string{} // field name -> dirs writing it untyped

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
			// writeName records a write of a field whose struct is not known:
			// where its package's own structs have no field of that name, any
			// other package's.
			writeName := func(id *ast.Ident) {
				if !ownField[dir][id.Name] {
					nameWritten[id.Name] = append(nameWritten[id.Name], dir)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							writeName(sel.Sel)
						}
					}
				case *ast.CompositeLit:
					typ := "" // "dir.Type." of a pkg.Type literal
					if sel, ok := n.Type.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
							typ = filepath.ToSlash(imports[x.Name]) + "." + sel.Sel.Name + "."
						}
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && typ != "" {
								written[typ+id.Name] = true
							} else if ok {
								writeName(id)
							}
						}
					}
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

	out = out[:0]
	for typ, fls := range fields {
		for _, fl := range fls {
			key := filepath.ToSlash(typ.dir) + "." + typ.ident + "." + fl
			if !written[key] && !slices.ContainsFunc(nameWritten[fl], func(d string) bool { return d != typ.dir }) {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	fmt.Print(strings.Join(append(out, ""), "\n"))
}

func asIdent(n ast.Node) *ast.Ident { id, _ := n.(*ast.Ident); return id }
