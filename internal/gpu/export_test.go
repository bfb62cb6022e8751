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

// SetClauseBudget lowers the per-warp runaway guard for a test and returns
// the function that restores it.
func SetClauseBudget(n int) (restore func()) {
	old := clauseBudget
	clauseBudget = n
	return func() { clauseBudget = old }
}
