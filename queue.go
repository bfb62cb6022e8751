package mobilesim

import (
	"context"
	"time"
)

// This file is the session command queue: an in-order, asynchronous
// submission path modelled on clEnqueueNDRangeKernel + cl_event. Submit
// enqueues a workload run and returns immediately with a Pending future;
// runs execute one at a time in submission order on the session's device.
// Cancelling a submission's context skips it while queued and soft-stops
// it mid-run at a kernel clause boundary, leaving the Session usable.

// Pending is one queued or running submission: a future for its result.
type Pending struct {
	workload string
	// done closes when the outcome is available (Wait/Done). released
	// closes when the entry no longer holds its queue slot — for a run
	// that means execution finished; for an entry cancelled while queued
	// it additionally waits for its predecessor, so a cancellation never
	// lets a successor overtake a still-running predecessor.
	done     chan struct{}
	released chan struct{}
	res      *RunResult
	err      error
	// ran records that the workload's Execute actually began (as opposed
	// to the entry being cancelled or refused while queued). Written
	// before done closes; read only after.
	ran bool
	// enqueued is the submission time, the zero point for the run's
	// queue-wait phase (RunResult.QueueWait).
	enqueued time.Time
}

// Workload returns the submitted workload's name.
func (p *Pending) Workload() string { return p.workload }

// Done returns a channel closed when the run completes (successfully,
// with an error, or by cancellation) — the cl_event analogue, selectable
// alongside other channels.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the run completes and returns its outcome. Wait is
// idempotent and safe for concurrent use. A run cancelled while queued
// or mid-kernel returns the submission context's error; a run refused
// because the session closed returns ErrClosed.
func (p *Pending) Wait() (*RunResult, error) {
	<-p.done
	return p.res, p.err
}

// Started reports whether the workload's execution actually began — it
// distinguishes a submission cancelled mid-run (kernel soft-stopped)
// from one skipped while still queued. It returns false until the
// outcome is available.
func (p *Pending) Started() bool {
	select {
	case <-p.done:
		return p.ran
	default:
		return false
	}
}

// Submit enqueues one run of a registered workload (see Workloads) and
// returns without waiting, like clEnqueueNDRangeKernel: callers may keep
// many runs in flight per session and Wait on each Pending. Runs execute
// strictly in submission order.
//
// ctx governs the one submission: cancelled while queued, the run is
// skipped (its predecessors are unaffected, successors proceed);
// cancelled mid-run, the executing kernel is soft-stopped at the next
// clause boundary and Wait returns ctx.Err() with the session still
// usable. A nil ctx means context.Background().
func (s *Session) Submit(ctx context.Context, ref string, opts ...RunOption) (*Pending, error) {
	w, err := Lookup(ref)
	if err != nil {
		return nil, err
	}
	return s.SubmitWorkload(ctx, w, opts...)
}

// SubmitWorkload is Submit for a Workload value, registered or not —
// custom workloads ride the same queue with the same cancellation
// semantics.
func (s *Session) SubmitWorkload(ctx context.Context, w Workload, opts ...RunOption) (*Pending, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := resolveOptions(opts)
	p := &Pending{
		workload: w.Info().Name,
		done:     make(chan struct{}),
		released: make(chan struct{}),
		enqueued: time.Now(),
	}

	s.qMu.Lock()
	if s.qClosed {
		s.qMu.Unlock()
		return nil, ErrClosed
	}
	prev := s.qTail
	s.qTail = p
	s.qMu.Unlock()

	go func() {
		defer close(p.released)
		// Drop the tail reference once this entry is finished, so an
		// idle session does not retain the last result indefinitely.
		defer func() {
			s.qMu.Lock()
			if s.qTail == p {
				s.qTail = nil
			}
			s.qMu.Unlock()
		}()
		if prev != nil {
			// In-order execution: wait for the predecessor to release
			// the device. Cancellation while queued completes this entry
			// early for Wait, but its slot still propagates in order so
			// a successor can never overtake a running predecessor.
			select {
			case <-prev.released:
			case <-ctx.Done():
				p.err = ctx.Err()
				close(p.done)
				<-prev.released
				return
			case <-s.base.Done():
				p.err = ErrClosed
				close(p.done)
				<-prev.released
				return
			}
		}
		p.res, p.err = s.runWorkload(ctx, w, o, p)
		close(p.done)
	}()
	return p, nil
}

// Run executes one registered workload synchronously: Submit + Wait. It
// returns ctx.Err() promptly when ctx is cancelled mid-run (the kernel is
// interrupted at a clause boundary) and the Session remains usable for
// subsequent runs.
func (s *Session) Run(ctx context.Context, ref string, opts ...RunOption) (*RunResult, error) {
	p, err := s.Submit(ctx, ref, opts...)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// RunWorkload is Run for a Workload value, registered or not.
func (s *Session) RunWorkload(ctx context.Context, w Workload, opts ...RunOption) (*RunResult, error) {
	p, err := s.SubmitWorkload(ctx, w, opts...)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// runWorkload executes one queue entry: it scopes the run's context to
// the session lifetime, wraps the workload with per-run statistics
// (snapshot-diff) and optional per-run CFG collection, stamps the common
// RunResult fields (phase timings and the modelled cost estimate
// included), and feeds the session's queue-wait/execution histograms.
// p.ran is set once Execute is actually entered (none of the
// queued-cancellation early exits taken).
func (s *Session) runWorkload(ctx context.Context, w Workload, o *RunOptions, p *Pending) (*RunResult, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Closing the session cancels in-flight runs too (mid-kernel, at a
	// clause boundary), so Close never waits for a long chain to drain.
	unhook := context.AfterFunc(s.base, cancel)
	defer unhook()

	fail := func(err error) (*RunResult, error) {
		if ctx.Err() == nil && s.base.Err() != nil {
			return nil, ErrClosed
		}
		return nil, err
	}
	if err := rctx.Err(); err != nil {
		return fail(err)
	}

	dev := s.device()
	if dev == nil {
		return nil, ErrClosed
	}
	restoreCFG := false
	if o.CollectCFG && !dev.CollectingCFG() {
		// Per-run CFG: collect only for this run, starting from a clean
		// graph (session-level collection was off, so nothing is lost).
		dev.ClearCFG()
		dev.SetCollectCFG(true)
		restoreCFG = true
	}

	t0 := time.Now()
	queueWait := t0.Sub(p.enqueued)
	pre := s.Stats()
	p.ran = true
	res, err := w.Execute(rctx, s, o)
	post := s.Stats()
	wall := time.Since(t0)
	// Phase timings are observed for every run that reached execution,
	// failed or cancelled ones included — an operator watching queue-wait
	// percentiles cares about pressure, not verification outcomes.
	s.obsQueueWait.Observe(queueWait)
	s.obsExec.Observe(wall)
	if restoreCFG {
		dev.SetCollectCFG(false)
	}
	if err != nil {
		return fail(err)
	}

	res.Wall = wall
	res.QueueWait = queueWait
	info := w.Info()
	res.Kind = info.Kind
	if res.Workload == "" {
		res.Workload = info.Name
	}
	res.Stats = post.sub(pre)
	res.Modeled = modeledCost(&res.Stats, w)
	if o.CollectCFG {
		res.CFG = dev.CFGGraph().Render()
	}
	return res, nil
}
