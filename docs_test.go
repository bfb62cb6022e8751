package mobilesim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must name code that
// exists: the three guides and the package documentation.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go"}

var (
	// testFuncRe finds a test, benchmark or fuzz target named in a
	// document; a trailing * names every target with that prefix.
	testFuncRe = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)(\*?)`)
	testDeclRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// facadeRe finds mobilesim.X (with an optional .Y selector) and bare
	// WithX options; a With not preceded by a dot belongs to the facade.
	facadeRe = regexp.MustCompile(`(?:\bmobilesim\.([A-Z]\w*)(?:\.([A-Z]\w*))?|(?:^|[^.\w])(With[A-Z]\w*))`)
	// keyedFieldRe finds a keyed field such as `RAMSize: 256 << 20` inside
	// a code span: it must be a field of a facade struct.
	keyedFieldRe = regexp.MustCompile(`(?:^|[{,(]\s*)([A-Z]\w*):\s`)
)

// facadeNames collects the root package's exported top-level names, and
// for each type the names of its fields and methods.
func facadeNames(t *testing.T) (top map[string]bool, members map[string]map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	top, members = map[string]bool{}, map[string]map[string]bool{}
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	for _, f := range pkgs["mobilesim"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						top[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									member(s.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return top, members
}

// testNames collects every test, benchmark and fuzz target declared in the
// tree, the benchmark module included.
func testNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testDeclRe.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func anyPrefixed(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// codeSpans returns the code a document shows, line by line: inline
// backtick spans and fenced blocks of a Markdown file, the whole text of
// a Go file. The first cell of a table row that says what was removed
// names the old API on purpose and is skipped.
func codeSpans(name, text string) [][]string {
	lines := strings.Split(text, "\n")
	spans := make([][]string, len(lines))
	fenced := false
	for i, line := range lines {
		switch {
		case strings.HasSuffix(name, ".go"):
			spans[i] = []string{line}
			continue
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
			continue
		case fenced:
			spans[i] = []string{line}
			continue
		}
		if cells := strings.Split(line, "|"); strings.HasPrefix(line, "|") && len(cells) > 2 && strings.Contains(cells[1], "removed") {
			line = strings.Join(cells[2:], "|")
		}
		parts := strings.Split(line, "`")
		for j := 1; j < len(parts); j += 2 {
			spans[i] = append(spans[i], parts[j])
		}
	}
	return spans
}

// TestDocsNameExistingCode: every test, benchmark, facade identifier and
// facade struct field the documents name in code exists in the tree, so a
// deletion cannot leave the documents describing it in the present tense.
func TestDocsNameExistingCode(t *testing.T) {
	top, members := facadeNames(t)
	tests := testNames(t)
	field := func(name string) bool {
		for _, m := range members {
			if m[name] {
				return true
			}
		}
		return false
	}
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, spans := range codeSpans(doc, string(src)) {
			line := i + 1
			for _, span := range spans {
				for _, m := range testFuncRe.FindAllStringSubmatch(span, -1) {
					if !tests[m[1]] && !(m[2] == "*" && anyPrefixed(tests, m[1])) {
						t.Errorf("%s:%d names %s%s, which no _test.go file declares", doc, line, m[1], m[2])
					}
				}
				for _, m := range facadeRe.FindAllStringSubmatch(span, -1) {
					switch x, sel, opt := m[1], m[2], m[3]; {
					case opt != "" && !top[opt]:
						t.Errorf("%s:%d names %s, which the facade does not declare", doc, line, opt)
					case x != "" && !top[x]:
						t.Errorf("%s:%d names mobilesim.%s, which the facade does not declare", doc, line, x)
					case sel != "" && members[x] != nil && !members[x][sel]:
						t.Errorf("%s:%d names mobilesim.%s.%s, which %s does not have", doc, line, x, sel, x)
					}
				}
				if strings.HasSuffix(doc, ".md") {
					for _, m := range keyedFieldRe.FindAllStringSubmatch(span, -1) {
						if !field(m[1]) {
							t.Errorf("%s:%d sets field %s, which no facade struct has", doc, line, m[1])
						}
					}
				}
			}
		}
	}
}
