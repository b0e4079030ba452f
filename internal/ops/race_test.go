//go:build race

package ops

// raceEnabled reports whether the race detector instruments this test
// binary; its runtime allocates where the plain runtime does not.
const raceEnabled = true
