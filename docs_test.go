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
	declared  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsCiteWhatExists fails when a document cites a test, benchmark or
// fuzz target that no _test.go file declares, or a Go file that is not in
// the tree. A cited path must be the end of some file's path from the module
// root, at a directory boundary.
func TestDocsCiteWhatExists(t *testing.T) {
	names := map[string]bool{}
	files := map[string]bool{} // every path and each of its directory-boundary suffixes
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
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
		}
	}
}
