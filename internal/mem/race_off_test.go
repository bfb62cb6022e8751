//go:build !race

package mem_test

const raceEnabled = false
