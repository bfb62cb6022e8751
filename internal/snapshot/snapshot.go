// Package snapshot captures, serialises and restores booted platform
// state, so sessions can be forked from a warm snapshot instead of paying
// a cold boot (platform construction, firmware load, page-table setup,
// runtime bring-up) per session.
//
// A snapshot is the composition of every layer's own captured state —
// guest RAM as an immutable image (mem.Image), the page allocator, the
// CPU core, interrupt controller, GPU, the kernel driver and the CL
// runtime — plus the session configuration it was taken under.
// Restoring never runs guest code: the work the snapshot captured is not
// repeated, and guest memory starts as a copy of the image's content pages
// (mem.ForkRAM), after which a restored session shares nothing with the
// image or with its siblings.
//
// The wire format (Encode/Decode) is versioned and deterministic: the
// same state always serialises to the same bytes (maps are emitted in
// sorted key order), so snapshot artifacts can be content-addressed and
// diffed.
package snapshot

import (
	"mobilesim/internal/cl"
	"mobilesim/internal/platform"
)

// Config mirrors the serialisable, shape-defining part of the facade
// session configuration. Host-side wiring (the shader engine) is
// deliberately absent: it is supplied afresh at restore time.
type Config struct {
	RAMSize         uint64
	ShaderCores     int
	HostThreads     int
	CompilerVersion string
}

// State is one full captured session: configuration, platform and
// runtime. It is immutable once captured and safe to restore from
// concurrently (a fork only reads the RAM image, while it is built).
type State struct {
	Config   Config
	Platform *platform.State
	CL       cl.State
}

// Capture snapshots a quiescent platform + runtime pair. The caller must
// guarantee nothing is executing (no queued run, no guest call, no job
// chain in flight).
func Capture(cfg Config, rt *cl.Context) (*State, error) {
	pst, err := rt.P.Capture()
	if err != nil {
		return nil, err
	}
	return &State{Config: cfg, Platform: pst, CL: rt.CaptureState()}, nil
}

// Restore builds a running platform and runtime from the state. The GPU's
// host-side wiring comes from pcfg (the facade lowers the restored
// session's configuration the same way New does).
func Restore(st *State, pcfg platform.Config) (*platform.Platform, *cl.Context, error) {
	p, err := platform.NewFromState(pcfg, st.Platform)
	if err != nil {
		return nil, nil, err
	}
	rt, err := cl.Restore(p, st.CL)
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	return p, rt, nil
}
