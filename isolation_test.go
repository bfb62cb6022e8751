package mobilesim

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"mobilesim/internal/mem"
)

// AuditRecycledRAM makes every guest-RAM recycle until the end of the test
// — every Session.Close in the process, on any goroutine — verify that the
// store it parks for the next session is all-zero: not only up to the
// allocator's high-water mark and the highest page the dirty map named,
// but to its last byte. The dirty map is the only thing Recycle scrubs by,
// so a write path that forgets to mark would otherwise hand one session's
// data to the next (on a mobilesimd host, another request's). It reports
// through t when the test ends, and fails the test if nothing was audited.
func AuditRecycledRAM(t testing.TB) {
	var audited, leaky atomic.Int64
	var first atomic.Pointer[string]
	mem.SetRecycleAudit(func(store []byte, markedTop uint64) {
		audited.Add(1)
		if off := firstNonZero(store); off >= 0 {
			leaky.Add(1)
			msg := fmt.Sprintf("page %d of a parked store is not zero (highest marked page %d)",
				off/mem.PageSize, int64(markedTop/mem.PageSize)-1)
			first.CompareAndSwap(nil, &msg)
		}
	})
	t.Cleanup(func() {
		mem.SetRecycleAudit(nil)
		if n := leaky.Load(); n != 0 {
			t.Errorf("%d of %d recycled guest RAMs kept guest bytes; first: %s", n, audited.Load(), *first.Load())
		}
		if audited.Load() == 0 {
			t.Error("no RAM recycle was audited")
		}
	})
}

// firstNonZero returns the offset of the page holding b's first non-zero
// byte, or -1 (bytes.Equal: the scan runs at memory speed, -race or not).
func firstNonZero(b []byte) int {
	var zero [mem.PageSize]byte
	for off := 0; off < len(b); off += len(zero) {
		if chunk := b[off:min(off+len(zero), len(b))]; !bytes.Equal(chunk, zero[:len(chunk)]) {
			return off
		}
	}
	return -1
}

// TestSessionsLeaveNoGuestBytesBehind is the cross-session isolation
// audit: every registry workload that runs on a session, at its smallest
// scale, on a cold and on a snapshot-forked session, single- and
// multi-threaded — and after each Close the parked RAM must be clean.
func TestSessionsLeaveNoGuestBytesBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole workload registry four times")
	}
	AuditRecycledRAM(t)
	for _, threads := range []int{1, 4} {
		cfg := Config{RAMSize: 128 << 20, HostThreads: threads}
		base, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := base.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		base.Close()
		for _, w := range Workloads() {
			for _, fork := range []bool{false, true} {
				var s *Session
				if fork {
					s, err = New(Config{}, FromSnapshot(snap))
				} else {
					s, err = New(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(context.Background(), w.Name, WithScale(w.SmallScale)); err != nil {
					t.Errorf("%s threads=%d fork=%t: %v", w.Name, threads, fork, err)
				}
				s.Close()
			}
		}
	}
}
