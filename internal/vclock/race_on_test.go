//go:build race

package vclock_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
