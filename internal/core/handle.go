package core

import (
	"time"
)

// ResourceHandle is the classic single-pilot binding of Section III-B3:
// Allocate submits the pilot, Run executes a pattern, Deallocate
// releases the allocation, and Execute chains all three into the full
// TTC report. It is a ResourceSet of one spec.
type ResourceHandle = ResourceSet

// NewResourceHandle validates the request and prepares a one-pilot set.
func NewResourceHandle(resource string, cores int, walltime time.Duration, cfg Config) (*ResourceHandle, error) {
	return NewResourceSet([]PilotSpec{{Resource: resource, Cores: cores, Walltime: walltime}}, cfg)
}
