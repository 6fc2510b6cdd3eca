//go:build race

package core_test

// raceEnabled reports a -race build: the race detector instruments
// allocations and makes sync.Pool drop returned items at random, so
// allocation counts are not meaningful under it.
const raceEnabled = true
