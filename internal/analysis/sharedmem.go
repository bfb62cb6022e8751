package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// memPkg is the package whose accessors the sharedmem contract is about.
const memPkg = "mobilesim/internal/mem"

// sharedMemEnforced lists the packages that execute concurrent guest
// code: inside them, every guest-RAM access must go through the atomic
// mem accessors or an mmu.Walker, whose data accesses are atomic
// (DESIGN.md §7). The GPU package runs one goroutine per virtual shader
// core plus the Job Manager, all racing on guest memory by (guest) design.
var sharedMemEnforced = []string{
	"mobilesim/internal/gpu",
}

// forbidden non-atomic entry points, by receiver type within memPkg.
// The plain Bus/RAM paths compile fine and pass -race on lucky
// schedules, which is exactly why they are flagged statically.
var sharedMemMethods = map[string]map[string]bool{
	"Bus": {
		"Read": true, "Write": true,
		"ReadBytes": true, "WriteBytes": true,
	},
	"RAM": {
		"Read": true, "Write": true, "Bytes": true,
	},
}

// forbidden package-level functions: the plain little-endian host-view
// accessors.
var sharedMemFuncs = map[string]map[string]bool{
	memPkg: {"LoadLE": true, "StoreLE": true},
}

// SharedMemAnalyzer is the production sharedmem instance, enforcing the
// default concurrent-guest package set.
var SharedMemAnalyzer = NewSharedMem(sharedMemEnforced...)

// NewSharedMem builds a sharedmem analyzer enforcing the given package
// paths (used by tests to point the contract at fixture packages).
func NewSharedMem(enforced ...string) *Analyzer {
	set := make(map[string]bool, len(enforced))
	for _, p := range enforced {
		set[p] = true
	}
	a := &Analyzer{
		Name: "sharedmem",
		Doc:  "guest-RAM accesses in concurrent-guest packages must use the atomic mem accessors / mmu.Walker paths",
	}
	a.Run = func(pass *Pass) {
		if !set[pass.Pkg.Path()] {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if recv, name, ok := resolveCallee(pass, sel); ok {
					pass.Reportf(call.Pos(),
						"non-atomic guest-RAM access: %s.%s bypasses the race-clean memory model (DESIGN.md §7); use the mmu.Walker accessors or mem.Atomic*, or annotate the site",
						recv, name)
				}
				return true
			})
		}
	}
	return a
}

// resolveCallee reports whether sel resolves to a forbidden accessor,
// returning a display name for the receiver ("mem.Bus", "mem") and the
// callee name.
func resolveCallee(pass *Pass, sel *ast.SelectorExpr) (string, string, bool) {
	// Method call: resolve the receiver's named type and package.
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		fn, ok := s.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != memPkg {
			return "", "", false
		}
		named := namedRecv(s.Recv())
		if named == "" || !sharedMemMethods[named][fn.Name()] {
			return "", "", false
		}
		return "mem." + named, fn.Name(), true
	}
	// Package-level function call.
	if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			if names := sharedMemFuncs[fn.Pkg().Path()]; names[fn.Name()] {
				short := fn.Pkg().Path()
				short = short[strings.LastIndex(short, "/")+1:]
				return short, fn.Name(), true
			}
		}
	}
	return "", "", false
}

// namedRecv returns the name of the receiver's named type, stripping a
// pointer, or "".
func namedRecv(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
