//go:build !race

package simtest

const RaceEnabled = false
