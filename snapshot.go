package mobilesim

import (
	"fmt"
	"io"

	"mobilesim/internal/snapshot"
)

// This file is the facade of the snapshot/restore subsystem
// (internal/snapshot): capture a booted session once, then fork
// ready-to-run sessions from it in microseconds instead of paying a cold
// boot each. A fork copies the pages of the snapshot's guest RAM image that
// hold a non-zero byte — one page for a boot image — into its own memory
// and shares nothing with the snapshot or with other forks afterwards; its
// cost grows with the content of the image, not with the size of guest RAM
// (DESIGN.md §8).

// Snapshot is a captured, immutable image of a booted session: guest RAM
// (up to the highest page ever written), MMU roots and page tables,
// device/IRQ/Job-Manager registers, driver and CL-runtime handles, and
// the accumulated statistics. One Snapshot can be restored
// into any number of concurrent sessions; it is never mutated by them.
//
// Host-side handles from the captured session — *Kernel, *Buffer, the
// collected CFG, the shader decode cache — are not part of a snapshot.
// Restored sessions rebuild programs on demand; guest memory those
// handles pointed at is captured, so re-running a registered workload
// reproduces the original run exactly.
type Snapshot struct {
	st *snapshot.State
}

// Config returns the session configuration the snapshot was captured
// under.
func (s *Snapshot) Config() Config {
	c := s.st.Config
	return Config{
		RAMSize:         c.RAMSize,
		ShaderCores:     c.ShaderCores,
		HostThreads:     c.HostThreads,
		CompilerVersion: c.CompilerVersion,
	}
}

// Encode writes the snapshot in its versioned wire format. Encoding is
// deterministic: the same snapshot always produces the same bytes.
func (s *Snapshot) Encode(w io.Writer) error {
	return snapshot.Encode(w, s.st)
}

// ReadSnapshot decodes a snapshot previously written with Encode.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	st, err := snapshot.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("mobilesim: snapshot: %w", err)
	}
	return &Snapshot{st: st}, nil
}

// Snapshot captures the session's current state. The capture takes the
// session like a run does: it waits for the run in flight to finish and
// holds off later ones until it is done, so the image is always a
// quiescent, between-runs state. Capturing a freshly booted session yields
// the warm "post-boot" image that SessionPool and cluster batches fork
// from.
func (s *Session) Snapshot() (*Snapshot, error) {
	// A capture waits as long as the session lives, so the only way not
	// to get the lock is the session closing.
	if s.acquire(s.base) != nil {
		return nil, ErrClosed
	}
	defer s.release()
	st, err := snapshot.Capture(snapshotConfig(s.cfg), s.rt)
	if err != nil {
		return nil, fmt.Errorf("mobilesim: snapshot: %w", err)
	}
	return &Snapshot{st: st}, nil
}

// snapshotConfig lowers the facade configuration to its serialisable
// mirror.
func snapshotConfig(c Config) snapshot.Config {
	return snapshot.Config{
		RAMSize:         c.RAMSize,
		ShaderCores:     c.ShaderCores,
		HostThreads:     c.HostThreads,
		CompilerVersion: c.CompilerVersion,
	}
}

// NewOption configures New beyond the session Config.
type NewOption func(*newOptions)

type newOptions struct {
	snap *Snapshot
}

// FromSnapshot makes New restore the session from a snapshot instead of
// cold-booting: guest memory starts as a copy of the snapshot image's
// content pages and no guest boot code runs, so the session is ready to
// run in microseconds.
//
// The session's configuration is the snapshot's own (Snapshot.Config):
// New's cfg must be the zero Config.
func FromSnapshot(snap *Snapshot) NewOption {
	return func(o *newOptions) { o.snap = snap }
}

// newFromSnapshot is the restore arm of New.
func newFromSnapshot(cfg Config, snap *Snapshot) (*Session, error) {
	if cfg != (Config{}) {
		return nil, fmt.Errorf("mobilesim: FromSnapshot restores the snapshot's own Config; New's cfg must be Config{}, not %+v", cfg)
	}
	eff := snap.Config()
	if err := eff.validate(); err != nil {
		return nil, err
	}
	p, rt, err := snapshot.Restore(snap.st, eff.platformConfig())
	if err != nil {
		return nil, fmt.Errorf("mobilesim: restore: %w", err)
	}
	return newSession(eff, p, rt), nil
}
