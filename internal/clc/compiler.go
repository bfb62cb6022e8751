package clc

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"mobilesim/internal/gpu"
)

// Version is one compiler release's pass configuration. The paper's Fig 1
// shows that successive versions of the vendor OpenCL compiler generate
// substantially different code for the same kernel; these knobs reproduce
// that variation with real pass differences rather than cosmetic noise.
type Version struct {
	Name string
	// MaxClauseSlots caps clause size (architectural max 16).
	MaxClauseSlots int
	// UseTemps promotes clause-local values into temporary registers,
	// relieving GRF pressure (Fig 4b).
	UseTemps bool
	// LoadPadNops inserts hazard-padding NOPs after each memory
	// instruction (older schedulers padded conservatively).
	LoadPadNops int
	// FoldAddressing folds constant offsets into load/store immediates
	// and CSEs address arithmetic within a block.
	FoldAddressing bool
	// ConstPool places literal constants in the binary's ROM table
	// instead of inline immediates.
	ConstPool bool
}

// Versions mirrors the vendor compiler releases evaluated in Fig 1.
var Versions = map[string]Version{
	"5.6": {Name: "5.6", MaxClauseSlots: 8, UseTemps: true, LoadPadNops: 2},
	"5.7": {Name: "5.7", MaxClauseSlots: 8, UseTemps: false, LoadPadNops: 1, FoldAddressing: true},
	"6.0": {Name: "6.0", MaxClauseSlots: 12, UseTemps: true, LoadPadNops: 2, ConstPool: true},
	"6.1": {Name: "6.1", MaxClauseSlots: 16, UseTemps: true, LoadPadNops: 0, FoldAddressing: true, ConstPool: true},
	"6.2": {Name: "6.2", MaxClauseSlots: 16, UseTemps: true, LoadPadNops: 0, FoldAddressing: true, ConstPool: true},
}

// DefaultVersion is the version the runtime JIT uses unless configured.
const DefaultVersion = "6.1"

// VersionNames returns all version names in release order.
func VersionNames() []string {
	names := make([]string, 0, len(Versions))
	for n := range Versions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Options configures a compilation.
type Options struct {
	// Version selects the compiler release; empty means DefaultVersion.
	Version string
}

// StaticReport is the offline-compiler view of a binary: the metrics shown
// in Fig 1.
type StaticReport struct {
	ArithCycles int // issue tuples through the arithmetic pipeline
	ArithInstrs int
	LSCycles    int // LS-pipe issues incl. address generation
	LSInstrs    int
	Registers   int // GRF footprint
}

// CompiledKernel is the JIT output for one kernel: the serialized binary
// the driver places in shared memory, plus metadata the runtime needs for
// argument marshalling. It is immutable: CompileAll hands the same kernel
// to every caller that compiles the same source (see memo), so a caller
// that wants to change a field — Params, Binary, Program — copies it first.
type CompiledKernel struct {
	Name       string
	Params     []Param
	Binary     []byte
	Program    *gpu.Program
	LocalBytes uint32
	Report     StaticReport
}

// Compile builds a single named kernel from source.
func Compile(src, kernelName string, opt Options) (*CompiledKernel, error) {
	all, err := CompileAll(src, opt)
	if err != nil {
		return nil, err
	}
	k, ok := all[kernelName]
	if !ok {
		return nil, fmt.Errorf("clc: kernel %q not found in source", kernelName)
	}
	return k, nil
}

// memo holds every successful CompileAll by resolved version and source.
// Compilation is a pure function of the two, so a process compiles each
// source once at each version, whichever session asks. The key compares the
// whole source string, never a hash of it. A failed compile is not kept. At
// memoCap entries the memo empties itself (a generation reset): a bound with
// no eviction order to maintain, far above the registry's few dozen kernels.
var memo = struct {
	sync.Mutex
	m     map[memoKey]map[string]*CompiledKernel
	stats gpu.CacheStats
}{m: make(map[memoKey]map[string]*CompiledKernel)}

type memoKey struct{ version, src string }

const memoCap = 1024

// MemoStats reports the compile memo's hits, misses and resets since the
// process started.
func MemoStats() gpu.CacheStats {
	memo.Lock()
	defer memo.Unlock()
	return memo.stats
}

// CompileAll builds every kernel in the source string. The kernels are
// shared with every other caller that compiles the same source at the same
// version (see CompiledKernel); the map is the caller's own.
func CompileAll(src string, opt Options) (map[string]*CompiledKernel, error) {
	verName := opt.Version
	if verName == "" {
		verName = DefaultVersion
	}
	ver, ok := Versions[verName]
	if !ok {
		return nil, fmt.Errorf("clc: unknown compiler version %q", verName)
	}
	key := memoKey{verName, src}
	memo.Lock()
	all, hit := memo.m[key]
	if hit {
		memo.stats.Hits++
	} else {
		memo.stats.Misses++
	}
	memo.Unlock()
	if !hit {
		var err error
		if all, err = compileAll(src, ver); err != nil {
			return nil, err
		}
		memo.Lock()
		if len(memo.m) >= memoCap {
			clear(memo.m)
			memo.stats.Resets++
		}
		memo.m[key] = all
		memo.Unlock()
	}
	return maps.Clone(all), nil
}

func compileAll(src string, ver Version) (map[string]*CompiledKernel, error) {
	kernels, err := ParseKernels(src)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*CompiledKernel, len(kernels))
	for _, k := range kernels {
		if _, dup := out[k.Name]; dup {
			return nil, fmt.Errorf("clc: duplicate kernel %q", k.Name)
		}
		if len(k.Params) > gpu.NumUniforms {
			return nil, fmt.Errorf("clc: kernel %q has %d parameters, the uniform file holds %d", k.Name, len(k.Params), gpu.NumUniforms)
		}
		fn, err := lowerKernel(k, ver)
		if err != nil {
			return nil, err
		}
		cg := &codegen{fn: fn, ver: ver}
		prog, err := cg.generate()
		if err != nil {
			return nil, err
		}
		bin, err := gpu.Serialize(prog)
		if err != nil {
			return nil, err
		}
		ac, ai, lc, li := prog.StaticCounts()
		out[k.Name] = &CompiledKernel{
			Name:       k.Name,
			Params:     k.Params,
			Binary:     bin,
			Program:    prog,
			LocalBytes: fn.LocalBytes,
			Report: StaticReport{
				ArithCycles: ac, ArithInstrs: ai,
				LSCycles: lc, LSInstrs: li,
				Registers: prog.RegCount,
			},
		}
	}
	return out, nil
}
