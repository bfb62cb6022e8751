package gpu

import (
	"bytes"
	"sync"
)

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
// shader programs. A decoded program is a pure function of the binary's
// bytes, so there is one cache per process (programs) and every device —
// whichever session, snapshot or fork it belongs to — decodes and compiles
// each kernel binary once. The hash only finds an entry; the bytes decide a
// hit, so a binary whose hash another binary holds is decoded privately and
// not cached.
//
// Entries are immutable once published except for the lazily compiled
// warp artifact (Program.warp), which is only written under mu and never
// replaced once set; readers obtain the program through the mutex before
// their exec goroutines start, which publishes the pointer race-free. At
// maxCachedPrograms entries the cache empties itself; a program already
// handed out stays valid.
type ProgramCache struct {
	mu    sync.Mutex
	m     map[uint64]cachedProgram // by hashBytes(raw)
	stats CacheStats
}

// CacheStats counts a process-wide cache's lookups (the program cache, the
// clc compile memo). They describe the host process, not the simulated
// machine, so they reach no statistics record and no snapshot.
type CacheStats struct {
	Hits, Misses uint64
	Resets       uint64 // a full cache emptied itself
}

// maxCachedPrograms bounds the program cache far above the registry's few
// dozen kernels at five compiler versions.
const maxCachedPrograms = 1024

// programs is the process-wide program cache.
var programs = &ProgramCache{m: make(map[uint64]cachedProgram)}

// ProgramCacheStats reports the process-wide program cache's hits, misses
// and resets.
func ProgramCacheStats() CacheStats {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	return programs.stats
}

// cachedProgram is a decoded program and the binary it was decoded from.
type cachedProgram struct {
	raw  []byte
	prog *Program
}

// get returns raw's decoded program with the artifact eng runs compiled.
// Decode and compile happen under the cache lock: the lock publishes the
// artifact pointer to every other device's Job Manager before its exec
// workers can observe the program, and once set an artifact is never
// replaced, so the workers' lock-free reads are race-free.
func (c *ProgramCache) get(raw []byte, eng Engine) (*Program, error) {
	key := hashBytes(raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.m[key]
	if found && bytes.Equal(e.raw, raw) {
		c.stats.Hits++
		e.prog.compile(eng)
		return e.prog, nil
	}
	c.stats.Misses++
	p, err := ParseBinary(raw)
	if err != nil {
		return nil, err
	}
	if !found {
		if len(c.m) >= maxCachedPrograms {
			clear(c.m)
			c.stats.Resets++
		}
		c.m[key] = cachedProgram{raw: raw, prog: p}
	}
	p.compile(eng)
	return p, nil
}

// compile ensures the artifact the chosen engine runs exists (the
// interpreter runs the decoded program itself). Callers must hold the
// owning ProgramCache's mutex when the program is shared.
func (p *Program) compile(eng Engine) {
	if eng == EngineWarp && p.warp == nil {
		p.warp = warpCompile(p)
	}
}
