package core

import "fmt"

// This file implements the adaptive capabilities the paper plans in
// Section V: varying the number of tasks between stages, terminating an
// ensemble when a condition is met (the basis of kill-replace style
// control), and composing unit patterns into higher-order patterns.

// The adaptive hooks (SimulationAnalysisLoop.AdaptiveSimulations and
// AdaptiveStop, EnsembleExchange.StopWhen) live on the pattern structs,
// so the zero values keep the paper's static semantics.

// validateAdaptive is called from the executor when hooks are present.
func validateAdaptiveWidth(n, iter int) error {
	if n < 1 {
		return fmt.Errorf("core: adaptive width %d for iteration %d", n, iter)
	}
	return nil
}

// Composite is a higher-order pattern: a sequence of unit patterns
// executed in order on one allocation (Section V: "higher order patterns
// as functions of unit patterns"). Phase statistics of the k-th member
// are prefixed with "pk." in the report.
type Composite struct {
	// Name labels the composite in reports; defaults to "composite".
	Name string
	// Members are executed sequentially.
	Members []Pattern
}

// PatternName implements Pattern.
func (c *Composite) PatternName() string {
	if c.Name != "" {
		return c.Name
	}
	return "composite"
}

// TaskCount implements Pattern.
func (c *Composite) TaskCount() int {
	n := 0
	for _, m := range c.Members {
		n += m.TaskCount()
	}
	return n
}

func (c *Composite) validate() error {
	if len(c.Members) == 0 {
		return fmt.Errorf("core: composite pattern with no members")
	}
	for i, m := range c.Members {
		if m == nil {
			return fmt.Errorf("core: composite member %d is nil", i)
		}
		if _, nested := m.(*Composite); nested {
			return fmt.Errorf("core: composite member %d: nesting composites is not supported", i)
		}
		if err := m.validate(); err != nil {
			return fmt.Errorf("core: composite member %d: %w", i, err)
		}
	}
	return nil
}

// runComposite executes members sequentially, merging phase stats with
// member prefixes. Each member runs through run, so it takes the same
// executor as its parent.
func (ex *executor) runComposite(c *Composite) error {
	for i, m := range c.Members {
		sub := newExecutor(ex.rs, m)
		// Share the submission cursor so pattern overhead accounting
		// stays serialized across members.
		sub.cur = ex.cur
		err := sub.run()

		// Merge the member's accounting into the parent under a prefix.
		sub.mu.Lock()
		memberPhases := sub.phases.stats()
		tasks, retries, overhead := sub.tasks, sub.retries, sub.patternOverhead
		sub.mu.Unlock()
		ex.mu.Lock()
		ex.tasks += tasks
		ex.retries += retries
		ex.patternOverhead += overhead
		ex.phases.merge(fmt.Sprintf("p%d.", i+1), memberPhases)
		ex.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: composite member %d (%s): %w", i+1, m.PatternName(), err)
		}
	}
	return nil
}
