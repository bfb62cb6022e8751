package clc

import "sort"

// MemoCap is the compile memo's bound.
const MemoCap = memoCap

// MemoLen reports how many sources the compile memo holds.
func MemoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.m)
}

// MemoSources returns the sources the compile memo holds.
func MemoSources() []string {
	memo.Lock()
	defer memo.Unlock()
	var srcs []string
	for k := range memo.m {
		srcs = append(srcs, k.src)
	}
	sort.Strings(srcs)
	return srcs
}
