//go:build race

package concolic

// raceEnabled reports whether the race detector instruments this test
// binary; its runtime allocates where the plain runtime does not.
const raceEnabled = true
