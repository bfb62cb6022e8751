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
}

func TestEdgeLatching(t *testing.T) {
	c := New()
	c.Enable(lineHigh)
	c.Assert(lineHigh)
	if _, ok := c.Claim(); !ok {
		t.Fatal("first edge not latched")
	}
	c.Assert(lineHigh) // second assert while high: no new edge
	if c.Pending() {
		t.Error("an assert of a line already high latched again")
	}
	c.Deassert(lineHigh)
	c.Assert(lineHigh)
	if l, ok := c.Claim(); !ok || l != lineHigh {
		t.Errorf("re-edge after deassert: Claim = %v, %v", l, ok)
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
	for want := Line(0); want < 8; want++ {
		if l, ok := c.Claim(); !ok || l != want {
			t.Errorf("Claim = %v, %v; want line %d latched", l, ok, want)
		}
	}
	if c.Pending() {
		t.Error("pending after every line was claimed")
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
