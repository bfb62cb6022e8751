package cpu

import "sync/atomic"

// CountCopySteps counts, from now on, the copy-loop passes the DBT runs in
// steps, and returns the function that reads the count and the one that
// stops counting.
func CountCopySteps() (read func() uint64, restore func()) {
	var passes atomic.Uint64
	countCopySteps = func(k uint64) { passes.Add(k) }
	return passes.Load, func() { countCopySteps = nil }
}

// Interpreted reports whether the DBT hands the instruction word w to the
// interpreter (opExec) instead of a tape case of its own.
func Interpreted(w uint32) bool { return lower(Decode(w), w, 0).op == opExec }
