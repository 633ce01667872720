package profile

// NewRefProfiler returns an empty profiler on the reference store
// (ref_store_test.go), for the full-stack layout-parity test in package
// profile_test.
var NewRefProfiler = newRefProfiler
