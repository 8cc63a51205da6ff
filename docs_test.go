package l3

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents that describe the system as it is. CHANGES.md
// and ROADMAP.md are history and may name what no longer exists.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

var (
	// A test, benchmark or fuzz target as a document cites it; a subtest
	// path after it ("/C1-quick") is not part of the name.
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// A Go file, bare ("proxy.go") or with some of its directories
	// ("serve/proxy.go"); "_test.go" alone names a kind of file, not one.
	citedFile = regexp.MustCompile(`(?:^|[^\w./-])((?:[\w.-]+/)*[A-Za-z0-9][\w.-]*\.go)\b`)
	// A package path as a command line cites it ("go run ./cmd/l3sim"); a
	// trailing "/..." or sentence period is not part of it, and a path to a
	// .go file is citedFile's.
	citedPackage = regexp.MustCompile(`(?:^|[^\w./-])\./((?:cmd|examples|internal)(?:/[\w.-]+)*)`)
	declared     = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsCiteWhatExists fails when a document cites a test, benchmark or
// fuzz target that no _test.go file declares, a Go file that is not in the
// tree, or a ./cmd, ./examples or ./internal package path that is not a
// directory. A cited file must be the end of some file's path from the module
// root, at a directory boundary; a cited package path is from the root.
func TestDocsCiteWhatExists(t *testing.T) {
	names := map[string]bool{}
	files := map[string]bool{} // every path and each of its directory-boundary suffixes
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			dirs[filepath.ToSlash(path)] = true
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		for p := filepath.ToSlash(path); ; {
			files[p] = true
			_, rest, ok := strings.Cut(p, "/")
			if !ok {
				break
			}
			p = rest
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declared.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedTest.FindAllString(line, -1) {
				if !names[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, name)
				}
			}
			for _, m := range citedFile.FindAllStringSubmatch(line, -1) {
				if !files[m[1]] {
					t.Errorf("%s:%d cites %s, which is not in the tree", doc, i+1, m[1])
				}
			}
			for _, m := range citedPackage.FindAllStringSubmatch(line, -1) {
				dir := strings.TrimRight(strings.TrimSuffix(m[1], "/..."), ".")
				if !strings.HasSuffix(dir, ".go") && !dirs[dir] {
					t.Errorf("%s:%d cites ./%s, which is not a directory in the tree", doc, i+1, dir)
				}
			}
		}
	}
}

// TestReadmeNamesEveryServeVariable fails when README.md names an L3SERVE_*
// variable that internal/serve/config.go does not read, or config.go reads
// one that README.md does not name.
func TestReadmeNamesEveryServeVariable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	config, err := os.ReadFile("internal/serve/config.go")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`L3SERVE_[A-Z_]+`).FindAllString(string(readme), -1) {
		named[name] = true
	}
	read := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bset\("(L3SERVE_[A-Z_]+)"`).FindAllStringSubmatch(string(config), -1) {
		read[m[1]] = true
	}
	if len(read) == 0 {
		t.Fatal("config.go reads no L3SERVE_ variable through set(: the pattern is stale")
	}
	for name := range named {
		if !read[name] {
			t.Errorf("README.md names %s, which config.go does not read", name)
		}
	}
	for name := range read {
		if !named[name] {
			t.Errorf("config.go reads %s, which README.md does not name", name)
		}
	}
}
