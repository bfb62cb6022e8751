package mobilesim

import (
	"context"
	"time"
)

// This file is how a workload run gets the session to itself. A Session
// has one run slot; Run, Snapshot and Close each hold it for their whole
// duration, so whole runs are mutually exclusive (every RunResult.Stats
// delta is exact under concurrent callers), a capture sees only
// between-runs state, and the platform is never torn down under a run.
// Callers waiting for the slot are not ordered among themselves.

// acquire takes the session's run slot. It blocks while another run, a
// capture or Close holds it, and gives up with ctx.Err() when the caller's
// context ends first, ErrClosed when the session does. A nil error means
// the caller holds the slot and must release it.
func (s *Session) acquire(ctx context.Context) error {
	select {
	case s.slot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.base.Done():
		return ErrClosed
	}
	// select picks among ready cases at random: a free slot does not mean
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

func (s *Session) release() { <-s.slot }

// Run executes one registered workload (see Workloads) on the caller's
// goroutine and returns its result. Concurrent calls on one session run
// one at a time, in no promised order; a caller that wants a future calls
// Run from a goroutine of its own.
//
// ctx governs the one call: cancelled while waiting for the session, Run
// returns ctx.Err() without disturbing the run in flight; cancelled
// mid-run, the executing kernel is soft-stopped at the next clause
// boundary and Run returns ctx.Err() promptly with the session still
// usable. A session closed meanwhile returns ErrClosed. A nil ctx means
// context.Background().
func (s *Session) Run(ctx context.Context, ref string, opts ...RunOption) (*RunResult, error) {
	w, err := Lookup(ref)
	if err != nil {
		return nil, err
	}
	return s.RunWorkload(ctx, w, opts...)
}

// RunWorkload is Run for a Workload value, registered or not — custom
// workloads get the same exclusion and cancellation semantics.
func (s *Session) RunWorkload(ctx context.Context, w Workload, opts ...RunOption) (*RunResult, error) {
	res, _, err := s.run(orBackground(ctx), w, opts...)
	return res, err
}

// run holds the session for one workload run: it scopes the run's context
// to the session lifetime, wraps the workload with per-run statistics
// (snapshot-diff) and optional per-run CFG collection, and stamps the
// common RunResult fields (phase timings and the modelled cost estimate
// included). entered reports whether the workload's Execute began — false
// on every path that gave up while waiting — which is how Batch tells an
// interrupted job from a skipped one.
func (s *Session) run(ctx context.Context, w Workload, opts ...RunOption) (res *RunResult, entered bool, err error) {
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

	dev := s.device()
	if dev == nil {
		return nil, false, ErrClosed
	}
	if o.CollectCFG {
		// The graph covers this run only: start it clean, stop after.
		dev.ClearCFG()
		dev.SetCollectCFG(true)
	}

	pre := s.Stats()
	res, err = w.Execute(rctx, s, o)
	post := s.Stats()
	wall := time.Since(t0)
	if o.CollectCFG {
		dev.SetCollectCFG(false)
	}
	if err != nil {
		if ctx.Err() == nil && s.base.Err() != nil {
			err = ErrClosed
		}
		return nil, true, err
	}

	res.Wall = wall
	res.QueueWait = t0.Sub(called)
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
	return res, true, nil
}
