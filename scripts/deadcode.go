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
//
// Last it takes a run census: it builds every command with -cover, runs
// each the way the figures, the goldens and a live proxy run it, and lists
// as file:line name every function of the module that no run entered. The
// runs are l3bench's -fig all, -fig ablations, -fig 1 -csv, a -reps 2
// figure and the four -chaos goldens; l3sim, l3trace and tracegen at their
// defaults; and l3serve at 500 ms rounds over three loopback stubs that
// this program serves, under l3load's 300 rps for 10 s with admission
// control off and 5 s with it on. Run from the repository root:
//
//	go run scripts/deadcode.go
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
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

	unrun, total, err := census()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode: census:", err)
		os.Exit(1)
	}
	fmt.Print(strings.Join(append(unrun, total, ""), "\n"))
}

// census builds every command with -cover into a scratch directory, does the
// runs the package comment lists with GOCOVERDIR set, and returns the
// functions at 0 %, sorted, as file:line name, and the share of statements
// the runs executed.
func census() (unrun []string, total string, err error) {
	dir, err := os.MkdirTemp("", "l3-census-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	bin, covdir := filepath.Join(dir, "bin"), filepath.Join(dir, "cover")
	if err := os.Mkdir(covdir, 0o755); err != nil {
		return nil, "", err
	}
	command := func(env []string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Env = append(append(os.Environ(), "GOCOVERDIR="+covdir), env...)
		return cmd
	}
	for _, name := range []string{"l3bench", "l3sim", "l3trace", "tracegen", "l3serve", "l3load"} {
		if out, err := exec.Command("go", "build", "-cover", "-coverpkg=l3/...", "-o", filepath.Join(bin, name), "./cmd/"+name).CombinedOutput(); err != nil {
			return nil, "", fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	const resilience = "deadline=1s,retries=3,budget=0.2,breaker=5"
	for _, args := range [][]string{
		{"l3bench", "-fig", "all"},
		{"l3bench", "-fig", "ablations"},
		{"l3bench", "-fig", "1", "-csv"},
		{"l3bench", "-fig", "7", "-quick", "-reps", "2"},
		{"l3bench", "-quick", "-chaos", "partition@48s+24s:cluster-1/cluster-2"},
		{"l3bench", "-quick", "-chaos", "garbage@48s+24s:nan", "-guard"},
		{"l3bench", "-quick", "-chaos", "saturate@48s+24s:api-cluster-1/0.25", "-resilience", resilience},
		{"l3bench", "-quick", "-chaos", "saturate@48s+24s:api-cluster-1/0.25", "-resilience", resilience, "-overload", "off"},
		{"l3sim"},
		{"l3trace"},
		{"tracegen"},
	} {
		if out, err := command(nil, args...).CombinedOutput(); err != nil {
			return nil, "", fmt.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	// Three loopback stubs; the last answers 20 ms late, so L3 has a backend
	// to steer off.
	var backends []string
	for i := range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		defer ln.Close()
		delay := time.Duration(i/2) * 20 * time.Millisecond
		go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			time.Sleep(delay)
			io.WriteString(w, "ok\n")
		}))
		backends = append(backends, fmt.Sprintf("stub-%d=http://%s", i, ln.Addr()))
	}
	for _, run := range []struct{ overload, duration string }{{"", "10s"}, {"limit=32,target=20ms,qcap=128,tiers=on", "5s"}} {
		server := command([]string{"L3SERVE_SCRAPE_INTERVAL=500ms", "L3SERVE_OVERLOAD=" + run.overload},
			"l3serve", "-listen", "127.0.0.1:0", "-backends", strings.Join(backends, ","))
		if err := serveUnderLoad(server, command(nil, "l3load", "-rate", "300", "-duration", run.duration)); err != nil {
			return nil, "", err
		}
	}

	out, err := exec.Command("go", "tool", "covdata", "func", "-i="+covdir).Output()
	if err != nil {
		return nil, "", fmt.Errorf("covdata: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		// l3/internal/core/collector.go:150:	*Collector.forget	0.0%
		// total	(statements)	77.7%
		switch f := strings.Fields(line); {
		case len(f) == 3 && f[0] == "total":
			total = strings.Join(f, " ")
		case len(f) == 3 && f[2] == "0.0%":
			unrun = append(unrun, strings.TrimPrefix(f[0], "l3/")+" "+f[1])
		}
	}
	sort.Strings(unrun)
	return unrun, total, nil
}

// serveUnderLoad starts server, points load at the address it prints, runs
// load to its end, then interrupts the server and waits for its drain.
func serveUnderLoad(server, load *exec.Cmd) error {
	stdout, err := server.StdoutPipe()
	if err != nil {
		return err
	}
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		return err
	}
	// l3serve: serving api via l3 on 127.0.0.1:40123 (3 backends)
	line, _ := bufio.NewReader(stdout).ReadString('\n')
	go io.Copy(io.Discard, stdout)
	var out []byte
	if f := strings.Fields(line); len(f) < 3 {
		err = fmt.Errorf("l3serve printed %q", line)
	} else {
		load.Args = append(load.Args, "-url", "http://"+f[len(f)-3]+"/")
		out, err = load.CombinedOutput()
	}
	server.Process.Signal(os.Interrupt)
	if werr := server.Wait(); werr != nil {
		return fmt.Errorf("l3serve: %v", werr)
	}
	if err != nil {
		return fmt.Errorf("l3load: %v\n%s", err, out)
	}
	return nil
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
