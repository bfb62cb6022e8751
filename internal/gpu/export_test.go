package gpu

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

// Rewrite is a set of the tape optimiser's rewrites.
type Rewrite = rewrite

// The rewrites a test can switch off one at a time.
const (
	RewriteForward   = rwForward
	RewriteFuseAddr  = rwFuseAddr
	RewriteFuseTail  = rwFuseTail
	RewriteDupHeader = rwDupHeader
)

// TapeSizes counts the micro-ops of a warp-compiled program's clause tapes,
// and of the tapes a warp can enter: the heads reachable from clause 0. With off zero it measures p's own tapes, otherwise p
// compiled afresh without the rewrites in off.
func TapeSizes(p *Program, off Rewrite) (clauseOps, headOps int) {
	wp := p.warp
	if off != 0 {
		wp = warpCompileWith(p, allRewrites&^off)
	}
	for _, t := range wp.clauses {
		clauseOps += len(t.ops)
	}
	seen := make([]bool, len(wp.heads))
	var enter func(ci int)
	enter = func(ci int) {
		if ci >= len(wp.heads) || seen[ci] {
			return
		}
		seen[ci] = true
		t := &wp.heads[ci]
		headOps += len(t.ops)
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
	return clauseOps, headOps
}

// SetClauseBudget lowers the per-warp runaway guard for a test and returns
// the function that restores it.
func SetClauseBudget(n int) (restore func()) {
	old := clauseBudget
	clauseBudget = n
	return func() { clauseBudget = old }
}
