package cpu

import "mobilesim/internal/mem"

// runInterp is the reference execution loop: fetch, decode and execute one
// instruction at a time. Every step pays full translation + decode cost,
// which is precisely the per-instruction-dispatch behaviour the paper's
// baseline comparison attributes Multi2Sim's CPU-side scaling to.
func (c *Core) runInterp(budget uint64) StopReason {
	for budget > 0 && !c.halted {
		if c.pendingIRQ() {
			c.takeIRQ(c.PC)
		}
		w, ok := c.fetch(c.PC)
		if !ok {
			if c.halted {
				return StopError
			}
			continue // vectored to the fault handler
		}
		in := Decode(w)
		c.Decodes++
		c.exec(in, c.PC)
		budget--
	}
	if c.halted {
		if c.stopErr != nil {
			return StopError
		}
		return StopHalted
	}
	return StopBudget
}

// --- DBT engine ----------------------------------------------------------

// maxBlockInsts bounds translated basic blocks. Blocks also end at any
// potential branch and never cross a page boundary (so one translation
// covers the whole block and self-modifying-code invalidation is per page).
const maxBlockInsts = 128

type block struct {
	insts []Inst
	start uint64 // virtual PC of first instruction
}

// blockCache is the translated-code cache: virtual PC -> decoded block.
// It is flushed whenever the address space could have changed (TTBR/SCTLR
// writes) and per page on stores into translated code pages.
type blockCache struct {
	blocks    map[uint64]*block
	codePages map[uint64]struct{} // virtual page numbers holding blocks

	// Translations counts block-translation events (cache misses);
	// Executions counts block dispatches. Their ratio is the DBT hit rate.
	Translations uint64
	Executions   uint64
}

func newBlockCache() *blockCache {
	return &blockCache{
		blocks:    make(map[uint64]*block),
		codePages: make(map[uint64]struct{}),
	}
}

func (bc *blockCache) flush() {
	bc.blocks = make(map[uint64]*block)
	bc.codePages = make(map[uint64]struct{})
}

// noteWrite invalidates translated code on a store into a code page.
// Whole-cache flush keeps the bookkeeping simple; stores into code pages
// are rare (program loading), exactly the trade QEMU's TB cache makes
// coarse-grained.
func (bc *blockCache) noteWrite(va uint64) {
	if len(bc.codePages) == 0 {
		return
	}
	if _, hot := bc.codePages[va>>12]; hot {
		bc.flush()
	}
}

// BlockCacheStats reports (translations, executions) for instrumentation.
func (c *Core) BlockCacheStats() (translations, executions uint64) {
	return c.btc.Translations, c.btc.Executions
}

// translate decodes a basic block starting at c.PC. Returns nil when the
// initial fetch faults (the fault has then been raised).
func (c *Core) translate(start uint64) *block {
	c.btc.Translations++
	b := &block{start: start}
	pc := start
	for len(b.insts) < maxBlockInsts {
		w, ok := c.fetch(pc)
		if !ok {
			if len(b.insts) == 0 {
				return nil
			}
			break // fault will re-trigger when execution reaches it
		}
		in := Decode(w)
		c.Decodes++
		b.insts = append(b.insts, in)
		if in.IsBranch() {
			break
		}
		pc += 4
		if pc&mem.PageMask == 0 {
			break // never cross a page
		}
	}
	c.btc.blocks[start] = b
	c.btc.codePages[start>>12] = struct{}{}
	c.btc.codePages[(pc-1)>>12] = struct{}{}
	return b
}

// runDBT executes through the block cache. Interrupts are recognised at
// block boundaries (QEMU-style), keeping the hot path free of per-
// instruction checks.
func (c *Core) runDBT(budget uint64) StopReason {
	for budget > 0 && !c.halted {
		if c.pendingIRQ() {
			c.takeIRQ(c.PC)
		}
		b := c.btc.blocks[c.PC]
		if b == nil {
			b = c.translate(c.PC)
			if b == nil {
				if c.halted {
					return StopError
				}
				continue // fetch faulted and vectored
			}
		}
		c.btc.Executions++
		pc := b.start
		for _, in := range b.insts {
			c.exec(in, pc)
			if c.PC != pc+4 {
				break // branch taken, fault vectored, or halt
			}
			pc = c.PC
		}
		n := uint64(len(b.insts))
		if n > budget {
			budget = 0
		} else {
			budget -= n
		}
	}
	if c.halted {
		if c.stopErr != nil {
			return StopError
		}
		return StopHalted
	}
	return StopBudget
}
