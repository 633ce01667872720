//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// quick smoke of the five workloads skips under it, as the heavyweight
// sweeps of internal/workload do.
const raceEnabled = false
