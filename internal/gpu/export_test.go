package gpu

// PlantCollision files squatter's decoded program under victim's cache key,
// as if the two binaries shared one 64-bit hash.
func (c *ProgramCache) PlantCollision(victim, squatter []byte) error {
	p, err := ParseBinary(squatter)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[hashBytes(victim)] = cachedProgram{raw: squatter, prog: p}
	return nil
}

// SetClauseBudget lowers the per-warp runaway guard for a test and returns
// the function that restores it.
func SetClauseBudget(n int) (restore func()) {
	old := clauseBudget
	clauseBudget = n
	return func() { clauseBudget = old }
}
