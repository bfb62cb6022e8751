package gpu

import (
	"sort"

	"mobilesim/internal/stats"
)

// State is the serializable device state for platform snapshots: the
// guest-visible register file plus the accumulated statistics. Host-side
// warm-up state — the decode cache, the collected CFG — is deliberately
// not captured: it is rebuilt on demand and never guest-visible. A device
// must be quiescent (job slot idle, no chain in flight) when captured.
type State struct {
	IRQRawstat uint32
	IRQMask    uint32
	JSHead     uint64
	JSStatus   uint32
	ASTranstab uint64
	ASApplied  uint64
	FaultStat  uint64
	FaultAddr  uint64

	GPUStats stats.GPUStats
	SysStats stats.SystemStats
	// TouchedPages is the distinct-page set behind the Table III
	// statistic, sorted for deterministic serialization.
	TouchedPages []uint64
}

// CaptureState snapshots the device. The caller must ensure no job chain
// is executing (the facade serialises capture on the session queue).
//
//simlint:commit -- snapshot copies the counter records wholesale
func (d *Device) CaptureState() State {
	d.mu.Lock()
	st := State{
		IRQRawstat: d.irqRawstat,
		IRQMask:    d.irqMask,
		JSHead:     d.jsHead,
		JSStatus:   d.jsStatus,
		ASTranstab: d.asTranstab,
		ASApplied:  d.asApplied,
		FaultStat:  d.faultStat,
		FaultAddr:  d.faultAddr,
	}
	d.mu.Unlock()

	d.statsMu.Lock()
	st.GPUStats = d.gpuStats
	st.SysStats = d.sysStats
	st.TouchedPages = make([]uint64, 0, len(d.touchedPages))
	for p := range d.touchedPages {
		st.TouchedPages = append(st.TouchedPages, p)
	}
	d.statsMu.Unlock()
	sort.Slice(st.TouchedPages, func(i, j int) bool { return st.TouchedPages[i] < st.TouchedPages[j] })
	return st
}

// RestoreState installs captured device state on a freshly constructed
// device (after Start; the Job Manager is idle until the first doorbell).
// The interrupt line is re-asserted when the restored rawstat has an
// unmasked bit pending, so a restored platform observes the same
// level-sensitive interrupt picture the captured one did.
//
//simlint:commit -- restore overwrites the counter records wholesale
func (d *Device) RestoreState(st State) {
	d.mu.Lock()
	d.irqRawstat = st.IRQRawstat
	d.irqMask = st.IRQMask
	d.jsHead = st.JSHead
	d.jsStatus = st.JSStatus
	d.asTranstab = st.ASTranstab
	d.asApplied = st.ASApplied
	d.faultStat = st.FaultStat
	d.faultAddr = st.FaultAddr
	fire := d.irqRawstat&d.irqMask != 0
	d.mu.Unlock()

	d.statsMu.Lock()
	d.gpuStats = st.GPUStats
	d.sysStats = st.SysStats
	d.touchedPages = make(map[uint64]struct{}, len(st.TouchedPages))
	for _, p := range st.TouchedPages {
		d.touchedPages[p] = struct{}{}
	}
	d.statsMu.Unlock()

	if fire {
		d.intc.Assert(d.line)
	}
}
