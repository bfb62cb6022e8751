package clc_test

import (
	"bytes"
	"fmt"
	"testing"

	"mobilesim/internal/clc"
)

// sourceSerial makes every source these tests compile new to the process,
// across -count repetitions too: a memo hit from an earlier test would
// hide what they check.
var sourceSerial int

func freshSource(body string) string {
	sourceSerial++
	return fmt.Sprintf("/* %d */ kernel void k(global int* o) { %s }", sourceSerial, body)
}

// TestMemoSharesKernelsNotMaps: a second compile of a source at a version is
// a hit that returns the same kernels in a map of the caller's own, and the
// same source at another version is a different key.
func TestMemoSharesKernelsNotMaps(t *testing.T) {
	src := freshSource("o[get_global_id(0)] = 3;")
	first, err := clc.CompileAll(src, clc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := first["k"]
	delete(first, "k")
	before := clc.MemoStats()
	second, err := clc.CompileAll(src, clc.Options{Version: clc.DefaultVersion})
	if err != nil {
		t.Fatal(err)
	}
	if got := clc.MemoStats(); got.Hits != before.Hits+1 || got.Misses != before.Misses {
		t.Errorf("second compile: hits %d → %d, misses %d → %d; want one hit", before.Hits, got.Hits, before.Misses, got.Misses)
	}
	if second["k"] != k {
		t.Errorf("second compile returned kernel %p, want the first compile's %p (a caller's map edit must not reach the memo)", second["k"], k)
	}
	old, err := clc.Compile(src, "k", clc.Options{Version: "5.6"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old.Binary, k.Binary) {
		t.Errorf("version 5.6 returned the %s binary", clc.DefaultVersion)
	}
}

// TestMemoIsBounded: compiling MemoCap+1 new sources leaves at most MemoCap
// entries, and the first of them — emptied out by a reset — recompiles to
// the same bytes.
func TestMemoIsBounded(t *testing.T) {
	firstSrc := freshSource("o[0] = 7;")
	first, err := clc.Compile(firstSrc, "k", clc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resets := clc.MemoStats().Resets
	for i := 0; i < clc.MemoCap; i++ {
		if _, err := clc.CompileAll(freshSource(fmt.Sprintf("o[0] = %d;", i)), clc.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := clc.MemoLen(); n > clc.MemoCap {
		t.Errorf("memo holds %d sources after %d new ones, want at most %d", n, clc.MemoCap+1, clc.MemoCap)
	}
	if clc.MemoStats().Resets == resets {
		t.Errorf("%d new sources did not reset the memo", clc.MemoCap+1)
	}
	misses := clc.MemoStats().Misses
	again, err := clc.Compile(firstSrc, "k", clc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clc.MemoStats().Misses != misses+1 {
		t.Errorf("the first source was still memoised after %d others", clc.MemoCap)
	}
	if again == first || !bytes.Equal(again.Binary, first.Binary) {
		t.Errorf("the evicted source did not recompile to the same binary")
	}
}

// TestMemoKeepsNoFailedCompile: a source that does not compile fails every
// time, each time as a miss, and the corrected source compiles.
func TestMemoKeepsNoFailedCompile(t *testing.T) {
	bad := freshSource("o[0] = ;")
	before := clc.MemoStats()
	for i := 0; i < 2; i++ {
		if _, err := clc.CompileAll(bad, clc.Options{}); err == nil {
			t.Fatalf("attempt %d: a syntax error compiled", i)
		}
	}
	if got := clc.MemoStats(); got.Misses != before.Misses+2 || got.Hits != before.Hits {
		t.Errorf("two failed compiles: hits %d → %d, misses %d → %d; want two misses", before.Hits, got.Hits, before.Misses, got.Misses)
	}
	if _, err := clc.Compile(freshSource("o[0] = 1;"), "k", clc.Options{}); err != nil {
		t.Errorf("the corrected source: %v", err)
	}
}
