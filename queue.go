package mobilesim

import (
	"context"
	"time"

	"mobilesim/internal/workloads"
)

// This file is how a caller gets the session to itself. A Session has one
// lock, a one-token channel. Every operation that touches the platform
// holds it for its whole duration: a run, each device primitive, a
// capture, Stats and Close. So whole runs are mutually exclusive with
// each other and with direct primitive calls (every RunResult.Stats delta
// is exact under concurrent callers), a capture sees only between-runs
// state, and the platform is never torn down under a run. Callers waiting
// for the lock are not ordered among themselves.

// acquire takes the session's lock. It blocks while another caller holds
// it, and gives up with ctx.Err() when the caller's context ends first,
// ErrClosed when the session does. A nil error means the caller holds the
// lock of an open session and must release it.
func (s *Session) acquire(ctx context.Context) error {
	select {
	case s.lock <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.base.Done():
		return ErrClosed
	}
	// select picks among ready cases at random: a free lock does not mean
	// the context was still live or the session still open.
	err := ctx.Err()
	if err == nil && s.base.Err() != nil {
		err = ErrClosed
	}
	if err != nil {
		s.release()
	}
	return err
}

func (s *Session) release() { <-s.lock }

// locked runs f holding the session's lock. A nil ctx means
// context.Background(); f gets the resolved context.
func (s *Session) locked(ctx context.Context, f func(context.Context) error) error {
	ctx = orBackground(ctx)
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	return f(ctx)
}

// Run executes one workload (see Workloads) on the caller's goroutine and
// returns its result. Concurrent calls on one session run one at a time,
// in no promised order; a caller that wants a future calls Run from a
// goroutine of its own.
//
// ctx governs the one call: cancelled while waiting for the session, Run
// returns ctx.Err() without disturbing the run in flight; cancelled
// mid-run, the executing kernel is soft-stopped at the next clause
// boundary and Run returns ctx.Err() promptly with the session still
// usable. A session closed meanwhile returns ErrClosed. A nil ctx means
// context.Background().
func (s *Session) Run(ctx context.Context, ref string, opts ...RunOption) (*RunResult, error) {
	spec, err := workloads.ByName(ref)
	if err != nil {
		return nil, err
	}
	res, _, err := s.run(orBackground(ctx), spec, opts...)
	return res, err
}

// run holds the session for one workload run: it scopes the run's context
// to the session lifetime, runs the Spec's Instance on the CL runtime with
// per-run statistics (snapshot-diff) and optional per-run CFG collection,
// and stamps the RunResult (phase timings and the modelled cost estimate
// included). entered reports whether the run began — false on every path
// that gave up while waiting — which is how Batch tells an interrupted job
// from a skipped one.
func (s *Session) run(ctx context.Context, spec *workloads.Spec, opts ...RunOption) (res *RunResult, entered bool, err error) {
	o := resolveOptions(opts)
	called := time.Now()
	if err := s.acquire(ctx); err != nil {
		return nil, false, err
	}
	defer s.release()
	t0 := time.Now() // the run has the session from here

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Closing the session cancels the run in flight too (mid-kernel, at a
	// clause boundary), so Close never waits for a long kernel to finish.
	unhook := context.AfterFunc(s.base, cancel)
	defer unhook()

	dev := s.p.GPU
	if o.collectCFG {
		// The graph covers this run only: start it clean, stop after.
		dev.ClearCFG()
		dev.SetCollectCFG(true)
	}
	scale := o.scale
	if scale <= 0 {
		scale = spec.DefaultScale
	}

	pre := s.statsLocked()
	out, err := spec.Make(scale).Run(rctx, s.rt, spec.Name, o.verify)
	post := s.statsLocked()
	wall := time.Since(t0)
	if o.collectCFG {
		dev.SetCollectCFG(false)
	}
	if err != nil {
		if ctx.Err() == nil && s.base.Err() != nil {
			err = ErrClosed
		}
		return nil, true, err
	}

	res = &RunResult{
		Workload: spec.Name, Kind: spec.Kind, Scale: scale,
		SimDuration:    out.SimDuration,
		NativeDuration: out.NativeDuration,
		Wall:           wall,
		QueueWait:      t0.Sub(called),
		Verified:       out.Verified,
		VerifyErr:      out.VerifyErr,
		Stats:          post.sub(pre),
	}
	res.SLAM, _ = out.Output.(*SLAMMetrics)
	res.Modeled = modeledCost(&res.Stats, spec)
	if o.collectCFG {
		res.CFG = dev.CFGGraph().Render()
	}
	return res, true, nil
}
