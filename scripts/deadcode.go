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
// grammar set, or a record that only its package fills. Every package is
// type-checked (stdlib go/types, its imports type-checked from source), so a
// write is attributed to the struct that declares the field: an assignment,
// increment or address-of through a selector, or a key of a composite
// literal, elided types included (an unkeyed literal writes every field).
// Run from the repository root:
//
//	go run scripts/deadcode.go
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
		if !d.IsDir() {
			return nil
		}
		pkg, err := build.ImportDir(p, 0) // GoFiles: the non-test files the build takes
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[p] = append(files[p], f)
		}
		return nil
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

	fmt.Print(strings.Join(append(unwritten(fset, files), ""), "\n"))
}

// unwritten type-checks every directory's files and returns, sorted, the
// exported fields of exported internal/ structs that no file outside the
// field's package writes.
func unwritten(fset *token.FileSet, files map[string][]*ast.File) []string {
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	fieldKey := map[*types.Var]string{} // every exported field of an exported struct, as dir.Type.Field
	keyed := map[*types.Package]bool{}
	keyOf := func(v *types.Var) string {
		v = v.Origin()
		if p := v.Pkg(); p != nil && !keyed[p] {
			keyed[p] = true
			eachField(p, func(f *types.Var, key string) { fieldKey[f] = key })
		}
		return fieldKey[v]
	}

	var all []string
	written := map[string]bool{}
	for dir, dirFiles := range files {
		abs, _ := filepath.Abs(dir)
		conf := types.Config{Importer: importerFrom{imp, abs}}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		self := "l3/" + filepath.ToSlash(dir)
		pkg, err := conf.Check(self, fset, dirFiles, info)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deadcode:", err)
			os.Exit(1)
		}
		if strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			eachField(pkg, func(_ *types.Var, key string) { all = append(all, key) })
		}
		// write records a write of field v from outside its package.
		write := func(v *types.Var) {
			if v != nil && v.IsField() && v.Pkg() != nil && v.Pkg().Path() != self {
				written[keyOf(v)] = true
			}
		}
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					v, _ := s.Obj().(*types.Var)
					return v
				}
			}
			return nil
		}
		for _, f := range dirFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						write(field(l))
					}
				case *ast.IncDecStmt:
					write(field(n.X))
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(field(n.X))
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						v, _ := info.Uses[id].(*types.Var)
						write(v)
					}
				case *ast.CompositeLit: // unkeyed: every field, in order
					if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := range n.Elts {
								write(st.Field(i))
							}
						}
					}
				}
				return true
			})
		}
	}

	var out []string
	for _, k := range all {
		if !written[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// eachField calls fn with every exported, named field of p's exported struct
// types and its key, dir.Type.Field.
func eachField(p *types.Package, fn func(f *types.Var, key string)) {
	for _, n := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(n).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fn(f, strings.TrimPrefix(p.Path(), "l3/")+"."+n+"."+f.Name())
				}
			}
		}
	}
}

// importerFrom imports on behalf of the package in dir, so a module's
// replace directives (benchmark/ replaces l3 with this checkout) apply.
type importerFrom struct {
	types.ImporterFrom
	dir string
}

func (i importerFrom) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, i.dir, 0)
}

func asIdent(n ast.Node) *ast.Ident { id, _ := n.(*ast.Ident); return id }
