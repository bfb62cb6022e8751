// Command simlint machine-checks the simulator's invariant contracts
// (DESIGN.md §10): the race-clean guest memory model (sharedmem), the
// exact-counter contract (statscommit), context plumbing (ctxflow) and
// the zero-alloc hot-path pins (hotalloc escape gate).
//
// Usage:
//
//	simlint [flags] [package patterns]
//
// With no patterns it checks ./... of the enclosing module plus the
// hotalloc manifest. Exit status is non-zero when any unannotated
// finding remains. Run it from anywhere inside the module.
//
// Flags:
//
//	-run list    comma-separated analyzers to run (default "all";
//	             names: sharedmem, statscommit, ctxflow, hotalloc)
//	-manifest p  hotalloc manifest path (default
//	             internal/analysis/hotalloc/manifest.txt under the
//	             module root)
//	-v           also list suppressed (annotated) findings
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mobilesim/internal/analysis"
	"mobilesim/internal/analysis/hotalloc"
)

func main() {
	var (
		runList  = flag.String("run", "all", "comma-separated analyzers to run (sharedmem,statscommit,ctxflow,hotalloc)")
		manifest = flag.String("manifest", "", "hotalloc manifest path (default <module>/internal/analysis/hotalloc/manifest.txt)")
		verbose  = flag.Bool("v", false, "also list suppressed (annotated) findings")
	)
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	selected := make(map[string]bool)
	if *runList == "all" || *runList == "" {
		for _, n := range analysis.AnalyzerNames() {
			selected[n] = true
		}
	} else {
		known := make(map[string]bool)
		for _, n := range analysis.AnalyzerNames() {
			known[n] = true
		}
		for _, n := range strings.Split(*runList, ",") {
			n = strings.TrimSpace(n)
			if !known[n] {
				fatal(fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(analysis.AnalyzerNames(), ", ")))
			}
			selected[n] = true
		}
	}

	failed := false

	var analyzers []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if selected[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) > 0 {
		fset := token.NewFileSet()
		pkgs, err := analysis.LoadPatterns(fset, root, flag.Args()...)
		if err != nil {
			fatal(err)
		}
		diags, err := analysis.Check(fset, pkgs, analyzers)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if d.Suppressed {
				if *verbose {
					fmt.Printf("%s (suppressed: %s)\n", d, d.Reason)
				}
				continue
			}
			fmt.Println(d)
			failed = true
		}
	}

	if selected["hotalloc"] {
		path := *manifest
		if path == "" {
			path = filepath.Join(root, "internal", "analysis", "hotalloc", "manifest.txt")
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		entries, err := hotalloc.ParseManifest(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		violations, err := hotalloc.Check(root, entries)
		if err != nil {
			fatal(err)
		}
		for _, v := range violations {
			fmt.Printf("%s: hotalloc: %s\n", v.Pos, v.Msg+" [pinned by \""+v.Entry.String()+"\"]")
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}

// moduleRoot locates the enclosing module's root directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("simlint must run inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(1)
}
