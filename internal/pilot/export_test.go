package pilot

// Hooks for the report-parity tests in package pilot_test, which run
// the full stack against a reference: see forceRescan and
// useFIFOPending.
var (
	ForceRescan    = forceRescan
	UseFIFOPending = useFIFOPending
)
