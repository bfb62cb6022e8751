package irq

import (
	"sync"
	"testing"
	"time"
)

// lineLow and lineHigh are lines no device is wired to, below and above
// LineGPU.
const (
	lineLow  Line = 1
	lineHigh Line = 9
)

func TestAssertClaim(t *testing.T) {
	c := New()
	c.Enable(LineGPU)
	if c.Pending() {
		t.Fatal("fresh controller should have nothing pending")
	}
	c.Assert(LineGPU)
	if !c.Pending() {
		t.Fatal("asserted enabled line should be pending")
	}
	l, ok := c.Claim()
	if !ok || l != LineGPU {
		t.Fatalf("Claim = %v, %v", l, ok)
	}
	if c.Pending() {
		t.Error("claimed interrupt should clear pending")
	}
}

func TestMaskingBlocksDelivery(t *testing.T) {
	c := New()
	c.Assert(lineLow)
	if c.Pending() {
		t.Error("disabled line must not be deliverable")
	}
	c.Enable(lineLow)
	if !c.Pending() {
		t.Error("enabling should expose latched pending")
	}
	c.Disable(lineLow)
	if c.Pending() {
		t.Error("disabling should mask again")
	}
}

func TestEdgeLatching(t *testing.T) {
	c := New()
	c.Enable(lineHigh)
	c.Assert(lineHigh)
	c.Assert(lineHigh) // second assert while high: no new edge
	if got := c.Asserted(lineHigh); got != 1 {
		t.Errorf("Asserted = %d, want 1", got)
	}
	c.Deassert(lineHigh)
	c.Assert(lineHigh)
	if got := c.Asserted(lineHigh); got != 2 {
		t.Errorf("Asserted after re-edge = %d, want 2", got)
	}
}

func TestClaimPriorityOrder(t *testing.T) {
	c := New()
	c.Enable(lineLow)
	c.Enable(LineGPU)
	c.Assert(LineGPU)
	c.Assert(lineLow)
	l, ok := c.Claim()
	if !ok || l != lineLow {
		t.Fatalf("lowest line first: got %v", l)
	}
	l, ok = c.Claim()
	if !ok || l != LineGPU {
		t.Fatalf("then next: got %v", l)
	}
	if _, ok := c.Claim(); ok {
		t.Error("nothing left to claim")
	}
}

func TestWaitChanWakesOnAssert(t *testing.T) {
	c := New()
	c.Enable(LineGPU)
	ch := c.WaitChan()
	select {
	case <-ch:
		t.Fatal("channel closed before assert")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	c.Assert(LineGPU)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by Assert")
	}
}

func TestWaitChanImmediateWhenPending(t *testing.T) {
	c := New()
	c.Enable(LineGPU)
	c.Assert(LineGPU)
	select {
	case <-c.WaitChan():
	case <-time.After(time.Second):
		t.Fatal("WaitChan should be closed immediately when already pending")
	}
}

func TestConcurrentAsserts(t *testing.T) {
	c := New()
	for l := Line(0); l < 8; l++ {
		c.Enable(l)
	}
	var wg sync.WaitGroup
	for l := Line(0); l < 8; l++ {
		wg.Add(1)
		go func(l Line) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Assert(l)
				c.Deassert(l)
			}
		}(l)
	}
	wg.Wait()
	for l := Line(0); l < 8; l++ {
		if got := c.Asserted(l); got != 100 {
			t.Errorf("line %d: %d edges, want 100", l, got)
		}
	}
}

func TestLineRangeChecked(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range line should panic")
		}
	}()
	c.Assert(Line(99))
}
