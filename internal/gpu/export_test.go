package gpu

import "sync/atomic"

// UsePrivateProgramCache gives the jobs a test starts from now on an empty
// program cache, so that ProgramCacheStats counts the test's decodes alone,
// and returns the function that restores the process-wide cache.
func UsePrivateProgramCache() (restore func()) {
	old := programs
	programs = &ProgramCache{m: make(map[uint64]cachedProgram)}
	return func() { programs = old }
}

// PlantCollision files squatter's decoded program under victim's key in the
// program cache, as if the two binaries shared one 64-bit hash.
func PlantCollision(victim, squatter []byte) error {
	p, err := ParseBinary(squatter)
	if err != nil {
		return err
	}
	programs.mu.Lock()
	defer programs.mu.Unlock()
	programs.m[hashBytes(victim)] = cachedProgram{raw: squatter, prog: p}
	return nil
}

// CachedPrograms returns the programs in the program cache.
func CachedPrograms() []*Program {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	var ps []*Program
	for _, e := range programs.m {
		ps = append(ps, e.prog)
	}
	return ps
}

// ExecJob runs a decoded job on d as the Job Manager does once it has read
// the job's descriptor, shader and arguments out of guest memory.
func (d *Device) ExecJob(desc *JobDescriptor, prog *Program, uniforms []uint64) error {
	prog.compile(d.cfg.Engine)
	return d.execJob(desc, prog, uniforms)
}

// CompileWarp builds p's warp-engine tapes, as a program cache miss does.
func CompileWarp(p *Program) { p.compile(EngineWarp) }

// heads is the chain table of a warp inside a divergent region, flat that
// of a warp with an empty divergence stack.
func (wp *warpProgram) heads() []tape { return wp.chains[:len(wp.clauses)] }
func (wp *warpProgram) flat() []tape  { return wp.chains[len(wp.clauses) : 2*len(wp.clauses)] }

// TapeSizes counts the micro-ops of a warp-compiled program's clause tapes,
// of the tapes a warp can enter in each chain table — those reachable from
// clause 0 through the table's own tapes — and of the re-entry variants.
func TapeSizes(p *Program) (clauseOps, headOps, flatOps, againOps int) {
	wp := p.warp
	for _, t := range wp.clauses {
		clauseOps += len(t.ops)
	}
	for _, t := range wp.chains[2*len(wp.clauses):] {
		againOps += len(t.ops)
	}
	return clauseOps, reachableOps(wp.heads()), reachableOps(wp.flat()), againOps
}

// reachableOps sums the micro-ops of the tapes of table reachable from
// clause 0.
func reachableOps(table []tape) (ops int) {
	seen := make([]bool, len(table))
	var enter func(ci int)
	enter = func(ci int) {
		if ci >= len(table) || seen[ci] {
			return
		}
		seen[ci] = true
		t := &table[ci]
		ops += len(t.ops)
		enter(t.next)
		switch t.tk {
		case tkBR:
			enter(t.tgt)
		case tkBRC:
			enter(t.tgt)
			enter(t.rejoin)
		}
	}
	enter(0)
	return ops
}

// CountTapes counts, from now on, the tapes every warp-engine job enters
// and the micro-ops they run, and returns the function that reads both
// counts and the one that stops counting.
func CountTapes() (read func() (entries, uops uint64), restore func()) {
	var entries, uops atomic.Uint64
	restore = chainTapes(func(t *tape, e uint64) {
		entries.Add(e)
		uops.Add(e * uint64(len(t.ops)))
	})
	return func() (uint64, uint64) { return entries.Load(), uops.Load() }, restore
}

// chainTapes adds f to the tape seam, after what is counting already, and
// returns the function that takes it off again.
func chainTapes(f func(t *tape, entries uint64)) (restore func()) {
	old := countTapes
	countTapes = func(t *tape, e uint64) {
		if old != nil {
			old(t, e)
		}
		f(t, e)
	}
	return func() { countTapes = old }
}

// CountLeafMemory counts, from now on, the memory micro-ops every
// warp-engine job that does not fault runs, and returns the function that
// reads how many execLeaf served and how many it handed back to runWarp's
// per-lane loops, and the one that stops counting.
func CountLeafMemory() (read func() (served, handed uint64), restore func()) {
	var uops, handed atomic.Uint64
	untape := chainTapes(func(t *tape, e uint64) {
		for _, u := range t.ops {
			if isMemUop(u) {
				uops.Add(e)
			}
		}
	})
	countHandBack = func(u uop) {
		if isMemUop(u) {
			handed.Add(1)
		}
	}
	return func() (uint64, uint64) { return uops.Load() - handed.Load(), handed.Load() },
		func() { untape(); countHandBack = nil }
}

// isMemUop reports whether u is a memory micro-op.
func isMemUop(u uop) bool {
	return u.kind() == kLoad || u.kind() == kStore
}

// SetClauseBudget lowers the per-warp runaway guard for a test and returns
// the function that restores it.
func SetClauseBudget(n int) (restore func()) {
	old := clauseBudget
	clauseBudget = n
	return func() { clauseBudget = old }
}

// InterpretedOps returns the opcodes of the kLaneInterp micro-ops — the
// instructions handed to the interpreter — in p's warp-engine tapes,
// clause and chain tapes alike.
func InterpretedOps(p *Program) []Opcode {
	p.compile(EngineWarp)
	var ops []Opcode
	for _, tapes := range [][]tape{p.warp.clauses, p.warp.chains} {
		for _, t := range tapes {
			for _, u := range t.ops {
				if u.kind() == kLaneInterp {
					ops = append(ops, p.warp.slow[u.imm()].in.Op)
				}
			}
		}
	}
	return ops
}
