//go:build race

package pilot_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
