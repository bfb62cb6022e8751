package clc

// MemoCap is the compile memo's bound.
const MemoCap = memoCap

// MemoLen reports how many sources the compile memo holds.
func MemoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.m)
}
