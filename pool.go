package mobilesim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mobilesim/internal/obs"
)

// ErrPoolClosed is returned by SessionPool.Get after Close.
var ErrPoolClosed = errors.New("mobilesim: session pool is closed")

// SessionPool maintains a fixed number of warm, ready-to-run sessions
// forked from one snapshot. A background refiller forks a replacement
// after each hand-out; Get forks synchronously when demand outruns it, so
// the pool degrades to on-demand forking rather than queueing.
//
// A fork costs tens of microseconds (BenchmarkSnapshotFork, DESIGN.md §8),
// so what a warm hit saves is small next to any run; the pool's value is
// the hand-out counters and latency histograms serving layers report
// (cmd/mobilesimd, DESIGN.md §12).
//
// Sessions handed out by Get are owned by the caller and single-use by
// convention: run what you need, then Close the session. Close scrubs only
// the pages the session wrote and the next fork copies only the image's
// content pages, so discarding a session after a run is cheaper than
// restoring it to pristine state.
type SessionPool struct {
	snap *Snapshot

	warm chan *Session
	// kick wakes the refiller after each hand-out; buffered so pokes
	// never block.
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool

	forked atomic.Uint64
	hits   atomic.Uint64
	inline atomic.Uint64

	getWait    obs.Histogram
	refillFork obs.Histogram
	inlineFork obs.Histogram
}

// NewSessionPool creates a pool holding size warm sessions (minimum 1)
// forked from snap, each configured like New(Config{}, FromSnapshot(snap)).
// The first fork is performed synchronously so configuration errors
// surface immediately; the rest fill in the background.
func NewSessionPool(snap *Snapshot, size int) (*SessionPool, error) {
	if size < 1 {
		size = 1
	}
	p := &SessionPool{
		snap: snap,
		warm: make(chan *Session, size),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	first, err := p.fork()
	if err != nil {
		return nil, err
	}
	p.warm <- first
	p.wg.Add(1)
	go p.refill()
	return p, nil
}

// fork creates one fresh session from the snapshot.
func (p *SessionPool) fork() (*Session, error) {
	s, err := New(Config{}, FromSnapshot(p.snap))
	if err != nil {
		return nil, err
	}
	p.forked.Add(1)
	return s, nil
}

// poke wakes the refiller without blocking.
func (p *SessionPool) poke() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// refill keeps the pool full until it closes: it forks while a slot is
// free and sleeps until the next hand-out otherwise.
func (p *SessionPool) refill() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		default:
		}
		if len(p.warm) == cap(p.warm) {
			select {
			case <-p.done:
				return
			case <-p.kick:
			}
			continue
		}
		t0 := time.Now()
		s, err := p.fork()
		if err != nil {
			// Forking failed after the first one succeeded — host
			// memory pressure, most likely. Back off to on-demand
			// forking in Get.
			return
		}
		p.refillFork.Observe(time.Since(t0))
		select {
		case p.warm <- s:
		case <-p.done:
			s.Close()
			return
		}
	}
}

// Get returns a ready-to-run session, preferring a warm one and forking
// on demand when the pool is momentarily empty. The caller owns the
// session and must Close it. ctx only gates the hand-out (it is not the
// session's lifetime); cancellation returns ctx.Err().
func (p *SessionPool) Get(ctx context.Context) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	defer p.poke()
	select {
	case <-p.done:
		return nil, ErrPoolClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	case s := <-p.warm:
		p.hits.Add(1)
		p.getWait.Observe(time.Since(t0))
		return s, nil
	default:
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrPoolClosed
	}
	p.inline.Add(1)
	s, err := p.fork()
	if err != nil {
		return nil, err
	}
	p.inlineFork.Observe(time.Since(t0))
	p.getWait.Observe(time.Since(t0))
	return s, nil
}

// Warm reports how many forked sessions are currently waiting in the
// pool.
func (p *SessionPool) Warm() int { return len(p.warm) }

// Forked reports how many sessions the pool has forked over its lifetime
// (warm fills plus on-demand forks).
func (p *SessionPool) Forked() uint64 { return p.forked.Load() }

// Hits reports how many Get calls were served from the warm pool.
func (p *SessionPool) Hits() uint64 { return p.hits.Load() }

// InlineForks reports how many Get calls found the pool momentarily
// empty and forked inline — the pool-exhaustion fallback path. Hits +
// InlineForks equals the number of successful hand-outs attempted (an
// inline fork that fails still counts as the attempt it was).
func (p *SessionPool) InlineForks() uint64 { return p.inline.Load() }

// PoolMetrics is a point-in-time snapshot of a pool's serving metrics
// (DESIGN.md §12).
type PoolMetrics struct {
	// Warm is the current warm count.
	Warm int
	// Lifetime counters, as the accessor methods report them.
	Forked      uint64
	Hits        uint64
	InlineForks uint64
	// GetWait distributes Get hand-out latency (warm hits and inline
	// forks alike); RefillFork and InlineFork distribute fork latency on
	// the background and fallback paths respectively.
	GetWait    LatencySnapshot
	RefillFork LatencySnapshot
	InlineFork LatencySnapshot
}

// Metrics returns the pool's current serving metrics snapshot.
func (p *SessionPool) Metrics() PoolMetrics {
	return PoolMetrics{
		Warm:        p.Warm(),
		Forked:      p.Forked(),
		Hits:        p.Hits(),
		InlineForks: p.InlineForks(),
		GetWait:     p.getWait.Snapshot(),
		RefillFork:  p.refillFork.Snapshot(),
		InlineFork:  p.inlineFork.Snapshot(),
	}
}

// Snapshot returns the snapshot the pool forks from.
func (p *SessionPool) Snapshot() *Snapshot { return p.snap }

// Close stops the refiller and closes every warm session. Sessions
// already handed out are unaffected (their owners Close them). Closing
// twice is a no-op.
func (p *SessionPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
	for {
		select {
		case s := <-p.warm:
			s.Close()
		default:
			return
		}
	}
}
