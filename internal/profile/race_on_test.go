//go:build race

package profile_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
