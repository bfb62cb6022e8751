// Package obs is the repo's dependency-free metrics core: a lock-cheap
// log-bucketed latency histogram with mergeable snapshots and quantile
// estimation, and helpers for rendering it and plain counter and gauge
// values in the Prometheus text exposition format.
//
// Everything here is stdlib-only and safe for concurrent use. Observe is
// a handful of uncontended atomic adds — cheap enough for per-request
// serving paths, but still too expensive for the per-instruction
// simulator hot paths pinned by simlint's hotalloc manifest, which this
// package must never be called from. Callers keep their counters and
// gauges in sync/atomic values and render them with WritePromCounter and
// WritePromGauge.
package obs

import (
	"fmt"
	"io"
	"strings"
)

// EscapeLabel escapes a Prometheus label value: backslash, double quote
// and newline must be backslash-escaped per the text exposition format.
func EscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePromCounter writes one counter metric in text exposition format.
func WritePromCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WritePromGauge writes one gauge metric in text exposition format.
func WritePromGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}
