// Package analysis implements simlint, the repo's machine-checked
// invariant suite (DESIGN.md §10). It is a small, self-contained
// analyzer framework in the spirit of golang.org/x/tools/go/analysis,
// built on the standard library only (go/ast + go/types + the source
// importer) so the linter needs nothing outside the Go toolchain.
//
// Four contracts are enforced:
//
//   - sharedmem: packages that execute concurrent guest code must reach
//     guest RAM through the atomic mem accessors / mmu.Walker paths,
//     never through the plain Bus/RAM entry points (DESIGN.md §7).
//   - statscommit: internal/stats counter fields may only be mutated
//     inside functions explicitly designated as commit sites, keeping
//     every engine on the shared bookkeeping the exact-counter contract
//     pins (DESIGN.md §9).
//   - ctxflow: a function that receives a context.Context (as a
//     parameter, or via a context-carrying receiver/parameter struct)
//     must not discard it by minting context.Background()/context.TODO().
//   - hotalloc (subpackage): a manifest of hot functions is verified
//     against the compiler's escape analysis, so a heap escape on a
//     pinned zero-alloc path fails the build (see hotalloc package doc).
//
// A finding at a deliberate exception site is suppressed with an
// explicit, reasoned annotation on (or immediately above) the line:
//
//	//simlint:allow <analyzer> -- <reason>
//
// Annotations are themselves checked: a malformed annotation, an unknown
// analyzer name, or an annotation that suppresses nothing is reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding covered by a simlint:allow annotation;
	// suppressed findings are retained for verbose listings but do not
	// fail the lint.
	Suppressed bool
	// Reason is the annotation reason for a suppressed finding.
	Reason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full production suite, in stable order. The
// sharedmem instance enforces the default concurrent-guest package set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SharedMemAnalyzer,
		StatsCommitAnalyzer,
		CtxFlowAnalyzer,
	}
}

// AnalyzerNames returns the names of every known analyzer, including
// the hotalloc gate (which runs outside the AST framework but shares
// the annotation namespace).
func AnalyzerNames() []string {
	names := []string{}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return append(names, "hotalloc")
}
