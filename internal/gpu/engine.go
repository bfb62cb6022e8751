package gpu

import "sync"

// Engine selects the shader execution engine. The interpreter is the
// specification and the warp tape its implementation: both produce
// identical guest memory effects and bit-identical statistics counters
// (the golden-stats files pin them) and differ only in host-side speed
// (DESIGN.md §9).
type Engine int

const (
	// EngineWarp (the default) lowers each clause — and each fusable chain
	// of clauses — to a flat tape of pre-decoded micro-ops that one switch
	// executes a whole warp at a time over SoA register rows, leaving the
	// tape only for memory accesses and the rare shapes the per-lane
	// interpreter handles. It is the paper's future-work "JIT-compiled
	// execution of GPU code" (§VII-A).
	EngineWarp Engine = iota
	// EngineInterp is the reference interpreter: a full opcode switch with
	// operand decoding on every access.
	EngineInterp
)

func (e Engine) String() string {
	switch e {
	case EngineWarp:
		return "warp"
	case EngineInterp:
		return "interp"
	}
	return "unknown"
}

// ProgramCache is a content-keyed cache of decoded (and engine-compiled)
// shader programs. A Device owns a private cache by default; sessions
// forked from one snapshot share a cache (Config.Programs), so a warm pool
// decodes and compiles each kernel binary exactly once.
//
// Entries are immutable once published except for the lazily compiled
// warp artifact (Program.warp), which is only written under mu and never
// replaced once set; readers obtain the program through the mutex before
// their exec goroutines start, which publishes the pointer race-free.
type ProgramCache struct {
	mu sync.Mutex
	m  map[uint64]cachedProgram // by hashBytes(raw)
}

// cachedProgram is a decoded program and the binary it was decoded from.
type cachedProgram struct {
	raw  []byte
	prog *Program
}

// NewProgramCache returns an empty program cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{m: make(map[uint64]cachedProgram)}
}

// compile ensures the artifact the chosen engine runs exists (the
// interpreter runs the decoded program itself). Callers must hold the
// owning ProgramCache's mutex when the program is shared.
func (p *Program) compile(eng Engine) {
	if eng == EngineWarp && p.warp == nil {
		p.warp = warpCompile(p)
	}
}
