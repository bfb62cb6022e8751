package cpu

import (
	"slices"

	"mobilesim/internal/mem"
)

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
	return c.stopReason()
}

// stopReason classifies why a run loop ended.
func (c *Core) stopReason() StopReason {
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
// potential branch and never cross a page boundary, so one translation
// covers the whole block and a block lives in exactly one code page.
const maxBlockInsts = 128

// block is one translated basic block: its micro-op tape (tape.go) and the
// chain to the blocks that followed it last time.
type block struct {
	ops   []uop
	start uint64 // virtual PC of first instruction

	// succ caches the last two successors (a conditional branch has two).
	// One is followed only if its start is the PC actually reached, so
	// indirect branches and exceptions just miss; and only while epoch
	// equals the cache's flush count: any invalidation drops every chain.
	succ  [2]*block
	epoch uint64

	cp copyLoop // matchCopy's reading of ops
}

// codePage indexes the translated blocks of one virtual page by the word
// offset of their first instruction, up to the highest one translated.
type codePage struct {
	vpn    uint64
	blocks []*block
}

// minCodePageBlocks is the least a code page's index grows to (512 bytes
// of pointers): every routine of the platform firmware starts inside it, so
// the firmware's code page grows once.
const minCodePageBlocks = 64

// codeSlots is the number of code pages cached at once, direct-mapped: two
// pages that collide evict each other, which costs a retranslation only.
const codeSlots = 64

// blockCache is the translated-code cache: virtual PC -> block, through a
// direct-indexed table per code page. A store into a page that holds
// translations drops that page; TTBR/SCTLR writes and engine switches drop
// everything, as virtual code mappings may have changed.
type blockCache struct {
	pages [codeSlots]*codePage
	stats BlockCacheStats
}

// BlockCacheStats is the DBT's host-side instrumentation.
type BlockCacheStats struct {
	// Translations counts block translations (cache misses), Executions
	// block dispatches; their ratio is the DBT hit rate.
	Translations, Executions uint64
	// Chained counts the dispatches that followed a successor link
	// instead of consulting the code-page table.
	Chained uint64
	// Flushes counts invalidations: a code page dropped by a guest store
	// or a table conflict, or the whole cache.
	Flushes uint64
}

// BlockCacheStats reports the DBT's instrumentation counters.
func (c *Core) BlockCacheStats() BlockCacheStats { return c.btc.stats }

func (bc *blockCache) flush() {
	bc.pages = [codeSlots]*codePage{}
	bc.stats.Flushes++
}

// slot returns the table entry that holds, or would hold, page vpn.
func (bc *blockCache) slot(vpn uint64) **codePage { return &bc.pages[(vpn^vpn>>6)%codeSlots] }

// noteWrite drops the translations of the page a guest store at va landed
// in, if it holds any.
func (bc *blockCache) noteWrite(va uint64) {
	if p := bc.slot(va >> 12); *p != nil && (*p).vpn == va>>12 {
		*p = nil
		bc.stats.Flushes++
	}
}

func (bc *blockCache) lookup(pc uint64) *block {
	if p := *bc.slot(pc >> 12); p != nil && p.vpn == pc>>12 && pc%4 == 0 {
		if i := pc & mem.PageMask / 4; i < uint64(len(p.blocks)) {
			return p.blocks[i]
		}
	}
	return nil
}

func (bc *blockCache) insert(b *block) {
	p := bc.slot(b.start >> 12)
	if *p == nil || (*p).vpn != b.start>>12 {
		if *p != nil {
			bc.stats.Flushes++ // conflict: the resident page's blocks go
		}
		*p = &codePage{vpn: b.start >> 12}
	}
	pg, i := *p, int(b.start&mem.PageMask/4)
	if i >= len(pg.blocks) {
		pg.blocks = slices.Grow(pg.blocks, max(i+1, minCodePageBlocks)-len(pg.blocks))[:i+1]
	}
	pg.blocks[i] = b
}

// translate lowers the basic block starting at start to a tape and caches
// it. Returns nil when the initial fetch faults (the fault has then been
// raised). Only that first fetch may raise: a later one that fails just
// ends the block, and faults for real if execution gets there.
func (c *Core) translate(start uint64) *block {
	c.btc.stats.Translations++
	w, ok := c.fetch(start)
	if !ok {
		return nil
	}
	var tape [maxBlockInsts]uop
	n, pc := 0, start
	for {
		in := Decode(w)
		c.Decodes++
		tape[n] = lower(in, w, pc)
		n++
		pc += 4
		if in.IsBranch() || n == maxBlockInsts || pc&mem.PageMask == 0 {
			break
		}
		if w, ok = c.fetchWord(pc); !ok {
			break
		}
	}
	b := &block{start: start, ops: append([]uop(nil), tape[:n]...)}
	fuse(b.ops)
	b.cp = matchCopy(b.ops, start)
	c.btc.insert(b)
	if c.stv.base == start&^mem.PageMask {
		c.stv = pageView{} // stores to a code page must reach noteWrite
	}
	return b
}

// next returns the block to dispatch at pc after prev (nil: none), by
// prev's chain when it leads there and through the code-page table,
// translating on a miss, otherwise. nil means the fetch at pc faulted.
func (c *Core) next(prev *block, pc uint64) *block {
	bc := &c.btc
	if prev != nil && prev.epoch == bc.stats.Flushes {
		for _, s := range prev.succ {
			if s != nil && s.start == pc {
				bc.stats.Chained++
				return s
			}
		}
	}
	b := bc.lookup(pc)
	if b == nil {
		if b = c.translate(pc); b == nil {
			return nil
		}
	}
	if prev != nil {
		if prev.epoch != bc.stats.Flushes {
			prev.succ, prev.epoch = [2]*block{}, bc.stats.Flushes
		}
		prev.succ[0], prev.succ[1] = b, prev.succ[0]
	}
	return b
}

// runDBT executes through the block cache. Interrupts are recognised at
// block boundaries (QEMU-style) — before every block, chained or not, and
// before a tape re-enters itself (execTape) — keeping the tape free of
// per-instruction checks.
func (c *Core) runDBT(budget uint64) StopReason {
	var b *block
	for budget > 0 && !c.halted {
		if c.pendingIRQ() {
			c.takeIRQ(c.PC)
		}
		if b = c.next(b, c.PC); b == nil {
			continue // the fetch faulted: vectored, or stopped the core
		}
		c.btc.stats.Executions++
		if n := c.execTape(b, budget); n < budget {
			budget -= n
		} else {
			budget = 0
		}
	}
	return c.stopReason()
}
