// Package irq implements the platform interrupt controller. It is a small
// GIC-flavoured distributor: devices assert/deassert numbered lines, the
// driver enables them and the CPU claims them. The GPU's Job Manager
// asserts lines from its own goroutine, so the controller is safe for
// concurrent use.
package irq

import (
	"fmt"
	"sync"
)

// Line identifies one interrupt input to the controller.
type Line int

// Platform interrupt lines. The platform package wires the GPU to LineGPU;
// the number is part of captured controller state and of the CPU's ESR on
// IRQ entry, so it does not move.
const (
	LineGPU Line = 4

	// NumLines is the number of input lines the controller supports.
	NumLines = 32
)

// Controller tracks pending and enabled state per line and computes the
// CPU-visible interrupt signal. Level semantics: a line stays pending while
// asserted; Ack clears the latched pending bit but a still-asserted level
// re-pends immediately (devices deassert when their own status is cleared).
type Controller struct {
	mu      sync.Mutex
	level   uint32 // current device-driven level per line
	pending uint32 // latched pending bits
	enabled uint32 // per-line enable mask

	// waiters are channels to poke when a new interrupt becomes deliverable;
	// the CPU's WFI implementation parks on one.
	waiters []chan struct{}
}

// New creates a controller with all lines deasserted and disabled.
func New() *Controller {
	return &Controller{}
}

func (c *Controller) checkLine(l Line) {
	if l < 0 || l >= NumLines {
		panic(fmt.Sprintf("irq: line %d out of range", l))
	}
}

// Assert raises a line. The first edge latches a pending bit.
func (c *Controller) Assert(l Line) {
	c.checkLine(l)
	c.mu.Lock()
	bit := uint32(1) << uint(l)
	if c.level&bit == 0 {
		c.level |= bit
		c.pending |= bit
	}
	waiters := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// Deassert lowers a line. Pending state latched by a previous edge remains
// until acknowledged.
func (c *Controller) Deassert(l Line) {
	c.checkLine(l)
	c.mu.Lock()
	c.level &^= uint32(1) << uint(l)
	c.mu.Unlock()
}

// Enable unmasks a line for delivery.
func (c *Controller) Enable(l Line) {
	c.checkLine(l)
	c.mu.Lock()
	c.enabled |= uint32(1) << uint(l)
	c.mu.Unlock()
}

// Pending reports whether any enabled line is pending; the CPU polls this
// between basic blocks.
func (c *Controller) Pending() bool {
	c.mu.Lock()
	p := c.pending&c.enabled != 0
	c.mu.Unlock()
	return p
}

// Claim returns the lowest-numbered pending enabled line and clears its
// pending latch (a still-asserted level re-pends on the next Assert edge
// only after Deassert, matching edge-latched level semantics). ok is false
// when nothing is deliverable.
func (c *Controller) Claim() (Line, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deliverable := c.pending & c.enabled
	if deliverable == 0 {
		return 0, false
	}
	for l := Line(0); l < NumLines; l++ {
		bit := uint32(1) << uint(l)
		if deliverable&bit != 0 {
			c.pending &^= bit
			return l, true
		}
	}
	return 0, false
}

// WaitChan returns a channel that is closed the next time any line is
// asserted. If an enabled interrupt is already pending the returned channel
// is closed immediately, so WFI never sleeps through a deliverable IRQ.
func (c *Controller) WaitChan() <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	if c.pending&c.enabled != 0 {
		c.mu.Unlock()
		close(ch)
		return ch
	}
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	return ch
}

// State is the serializable controller state, captured for platform
// snapshots. Waiters are host-side parking, not guest state, and are not
// captured.
type State struct {
	Level   uint32
	Pending uint32
	Enabled uint32
}

// CaptureState snapshots the controller.
func (c *Controller) CaptureState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return State{Level: c.level, Pending: c.pending, Enabled: c.enabled}
}

// RestoreState installs captured controller state and pokes any parked
// waiter when a deliverable interrupt was restored.
func (c *Controller) RestoreState(st State) {
	c.mu.Lock()
	c.level, c.pending, c.enabled = st.Level, st.Pending, st.Enabled
	var waiters []chan struct{}
	if c.pending&c.enabled != 0 {
		waiters = c.waiters
		c.waiters = nil
	}
	c.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}
