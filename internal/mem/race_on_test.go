//go:build race

package mem_test

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of its Puts on purpose and allocation counts are not meaningful.
const raceEnabled = true
