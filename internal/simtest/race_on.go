//go:build race

package simtest

// RaceEnabled reports a -race build, under which sync.Pool drops a share
// of its Puts on purpose and allocation counts are not meaningful.
const RaceEnabled = true
