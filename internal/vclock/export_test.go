package vclock

// NewRefVirtual returns a virtual clock backed by the reference engine
// (ref_engine_test.go), for the full-stack engine-parity test in package
// vclock_test.
var NewRefVirtual = newRefVirtual
