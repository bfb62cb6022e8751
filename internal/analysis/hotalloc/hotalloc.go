// Package hotalloc implements simlint's build-time escape-analysis
// gate: a checked-in manifest pins the functions on the simulator's
// zero-alloc hot paths (walker load/store hit paths, the shared atomic
// fast path, the warp engine's fused-clause and vector-ALU kernels),
// and the gate verifies them against the compiler's own escape analysis
// (`go build -gcflags=-m`). A heap escape introduced into a pinned
// function fails the lint immediately, instead of waiting for a
// testing.AllocsPerRun pin to execute the exact shape that allocates.
//
// Manifest grammar (one entry per line, '#' comments):
//
//	<import-path> <decl> [+closures]
//
// where <decl> is a function name (AtomicLoad32), a method with its
// pointer-stripped receiver (Walker.Load), or a package-level var whose
// initializer holds function literals (slowBin). By default the
// declaration's body is checked excluding nested function literals
// (creating a closure heap-allocates at compile time, which is fine off
// the hot path); with +closures only the literals' bodies are checked —
// that pins code the engines compile once and execute per clause.
//
// Two diagnostic classes are always exempt: "func literal escapes to
// heap" at a literal's opening line (the closure object itself), and
// escapes inside panic(...) arguments (panic aborts the simulation; the
// fmt boxing on those guard paths never runs on the hot path).
package hotalloc

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one pinned declaration.
type Entry struct {
	Pkg      string // import path
	Decl     string // "Func", "Recv.Method" or package-level var name
	Closures bool   // +closures: check only nested func literals
}

func (e Entry) String() string {
	s := e.Pkg + " " + e.Decl
	if e.Closures {
		s += " +closures"
	}
	return s
}

// Violation is one heap escape inside a pinned region.
type Violation struct {
	Entry Entry
	Pos   string // file:line:col relative to the module root
	Msg   string // compiler diagnostic
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s [pinned by %q]", v.Pos, v.Msg, v.Entry.String())
}

// ParseManifest reads manifest lines.
func ParseManifest(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		e := Entry{}
		switch len(fields) {
		case 3:
			if fields[2] != "+closures" {
				return nil, fmt.Errorf("manifest line %d: unknown modifier %q (want +closures)", line, fields[2])
			}
			e.Closures = true
			fallthrough
		case 2:
			e.Pkg, e.Decl = fields[0], fields[1]
		default:
			return nil, fmt.Errorf("manifest line %d: want \"<import-path> <decl> [+closures]\", got %q", line, text)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// span is a column-precise [from, to] source range in one file.
// Column precision matters: a compile-time allocation on the closing
// line of a func literal (`}, buildStats(...)`) must not be attributed
// to the literal's interior.
type span struct {
	file              string
	fromLine, fromCol int
	toLine, toCol     int
}

func (s span) contains(file string, line, col int) bool {
	if file != s.file {
		return false
	}
	if line < s.fromLine || line > s.toLine {
		return false
	}
	if line == s.fromLine && col < s.fromCol {
		return false
	}
	if line == s.toLine && col > s.toCol {
		return false
	}
	return true
}

// region is the checked area of one manifest entry.
type region struct {
	entry Entry
	body  span   // whole declaration
	lits  []span // nested func literals
}

// covers reports whether an escape at (file, line, col) is pinned by
// this region, honouring the entry's closure mode and the func-literal
// opening-position exemption.
func (g *region) covers(file string, line, col int, msg string) bool {
	if !g.body.contains(file, line, col) {
		return false
	}
	inLit, litStart := false, false
	for _, l := range g.lits {
		if l.contains(file, line, col) {
			inLit = true
			if line == l.fromLine {
				litStart = true
			}
		}
	}
	if g.entry.Closures {
		if !inLit {
			return false
		}
		// The closure object escaping at its own opening position is the
		// compile-time allocation, not a hot-path one.
		if litStart && strings.Contains(msg, "func literal escapes") {
			return false
		}
		return true
	}
	return !inLit
}

var escapeLine = regexp.MustCompile(`(?m)^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// Check verifies the manifest against the compiler's escape analysis.
// moduleDir is the module root the import paths resolve in. It returns
// the violations (empty means the gate passes); a stale manifest entry
// that matches no declaration is an error, so the pin set cannot rot.
func Check(moduleDir string, entries []Entry) ([]Violation, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	byPkg := make(map[string][]Entry)
	var pkgs []string
	for _, e := range entries {
		if len(byPkg[e.Pkg]) == 0 {
			pkgs = append(pkgs, e.Pkg)
		}
		byPkg[e.Pkg] = append(byPkg[e.Pkg], e)
	}
	sort.Strings(pkgs)

	fset := token.NewFileSet()
	var regions []*region
	var panics []span // panic(...) argument spans, exempt everywhere
	for _, pkg := range pkgs {
		dir, files, err := listPackage(moduleDir, pkg)
		if err != nil {
			return nil, err
		}
		found := make(map[string]*region)
		for _, name := range files {
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(moduleDir, path)
			if err != nil {
				return nil, err
			}
			collectRegions(fset, f, rel, byPkg[pkg], found)
			panics = append(panics, collectPanics(fset, f, rel)...)
		}
		for _, e := range byPkg[pkg] {
			g, ok := found[e.Decl]
			if !ok {
				return nil, fmt.Errorf("hotalloc: manifest entry %q matches no declaration in %s (stale manifest?)", e.String(), pkg)
			}
			g.entry = e
			regions = append(regions, g)
		}
	}

	out, err := buildEscapes(moduleDir, pkgs)
	if err != nil {
		return nil, err
	}
	var violations []Violation
	for _, m := range escapeLine.FindAllStringSubmatch(out, -1) {
		file, msg := filepath.ToSlash(m[1]), m[4]
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		exempt := false
		for _, p := range panics {
			if p.contains(file, line, col) {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
		for _, g := range regions {
			if g.covers(file, line, col, msg) {
				violations = append(violations, Violation{
					Entry: g.entry,
					Pos:   fmt.Sprintf("%s:%s:%s", file, m[2], m[3]),
					Msg:   msg,
				})
			}
		}
	}
	return violations, nil
}

// listPackage resolves one import path to its directory and Go files.
func listPackage(moduleDir, pkg string) (string, []string, error) {
	cmd := exec.Command("go", "list", "-f", "{{.Dir}}\n{{range .GoFiles}}{{.}}\n{{end}}", pkg)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list %s: %v\n%s", pkg, err, stderr.String())
	}
	parts := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(parts) < 2 {
		return "", nil, fmt.Errorf("hotalloc: package %s has no Go files", pkg)
	}
	return parts[0], parts[1:], nil
}

// collectRegions records the declarations wanted by entries.
func collectRegions(fset *token.FileSet, f *ast.File, rel string, entries []Entry, found map[string]*region) {
	want := make(map[string]bool, len(entries))
	for _, e := range entries {
		want[e.Decl] = true
	}
	spanOf := func(n ast.Node) span {
		from, to := fset.Position(n.Pos()), fset.Position(n.End())
		return span{file: rel, fromLine: from.Line, fromCol: from.Column, toLine: to.Line, toCol: to.Column}
	}
	lits := func(n ast.Node) []span {
		var out []span
		ast.Inspect(n, func(c ast.Node) bool {
			if lit, ok := c.(*ast.FuncLit); ok {
				out = append(out, spanOf(lit))
			}
			return true
		})
		return out
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				name = recvTypeName(d.Recv.List[0].Type) + "." + name
			}
			if want[name] && d.Body != nil {
				found[name] = &region{body: spanOf(d), lits: lits(d.Body)}
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if want[id.Name] {
						found[id.Name] = &region{body: spanOf(vs), lits: lits(vs)}
					}
				}
			}
		}
	}
}

// recvTypeName strips pointers/generics from a receiver type expr.
func recvTypeName(t ast.Expr) string {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// collectPanics records panic(...) argument spans.
func collectPanics(fset *token.FileSet, f *ast.File, rel string) []span {
	var out []span
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
			from, to := fset.Position(call.Pos()), fset.Position(call.End())
			out = append(out, span{
				file:     rel,
				fromLine: from.Line, fromCol: from.Column,
				toLine: to.Line, toCol: to.Column,
			})
		}
		return true
	})
	return out
}

// buildEscapes compiles the packages with -gcflags=-m and returns the
// diagnostic stream. The go command replays cached compiler output, so
// warm runs stay fast without defeating the build cache.
func buildEscapes(moduleDir string, pkgs []string) (string, error) {
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -gcflags=-m: %v\n%s", err, buf.String())
	}
	return buf.String(), nil
}
