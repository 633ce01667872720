// Trace assertions: declarative expectations checked against the
// columnar profiler after a run. A spec names an entity prefix and an
// event, and asserts existence, absence, an exact count, an ordering
// against another event, or a bound on a span / phase sum. Failures
// render the matching entities' virtual-time timelines, so "the
// assertion failed" arrives with the evidence needed to see why.

package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"entk/internal/profile"
)

// AssertSpec is one declarative expectation over a run's trace.
type AssertSpec struct {
	// Entity is the entity prefix the spec ranges over ("" = every
	// entity; "unit." = all units; "pipeline.md" = one pipeline).
	Entity string `json:"entity"`
	// Name is the event the spec is about (unused by span/sum kinds).
	Name string `json:"name,omitempty"`
	// Kind selects the predicate: "exists", "absent", "count",
	// "order", "span_max", or "sum_max".
	Kind string `json:"kind"`
	// Count is the exact occurrence count for kind "count".
	Count int `json:"count,omitempty"`
	// Before names the event whose first occurrence must come strictly
	// after Name's first occurrence, for kind "order".
	Before string `json:"before,omitempty"`
	// Start/Stop name the bracketing events for "span_max" (first
	// Start to last Stop) and "sum_max" (per-entity phase sums).
	Start string `json:"start,omitempty"`
	Stop  string `json:"stop,omitempty"`
	// MaxMS bounds the span or sum, in virtual milliseconds.
	MaxMS float64 `json:"max_ms,omitempty"`
}

// String renders the spec compactly for failure messages.
func (s AssertSpec) String() string {
	ent := s.Entity
	if ent == "" {
		ent = "*"
	}
	switch s.Kind {
	case "count":
		return fmt.Sprintf("%s[%s] %s == %d", s.Kind, ent, s.Name, s.Count)
	case "order":
		return fmt.Sprintf("%s[%s] %s before %s", s.Kind, ent, s.Name, s.Before)
	case "span_max", "sum_max":
		return fmt.Sprintf("%s[%s] %s..%s <= %.0fms", s.Kind, ent, s.Start, s.Stop, s.MaxMS)
	default:
		return fmt.Sprintf("%s[%s] %s", s.Kind, ent, s.Name)
	}
}

func (s AssertSpec) validate(i int) error {
	switch s.Kind {
	case "exists", "absent":
		if s.Name == "" {
			return fmt.Errorf("campaign: assert[%d]: kind %q needs name", i, s.Kind)
		}
	case "count":
		if s.Name == "" {
			return fmt.Errorf("campaign: assert[%d]: kind count needs name", i)
		}
		if s.Count < 0 {
			return fmt.Errorf("campaign: assert[%d]: count must be >= 0", i)
		}
	case "order":
		if s.Name == "" || s.Before == "" {
			return fmt.Errorf("campaign: assert[%d]: kind order needs name and before", i)
		}
	case "span_max", "sum_max":
		if s.Start == "" || s.Stop == "" {
			return fmt.Errorf("campaign: assert[%d]: kind %s needs start and stop", i, s.Kind)
		}
		if s.MaxMS <= 0 {
			return fmt.Errorf("campaign: assert[%d]: kind %s needs max_ms > 0", i, s.Kind)
		}
	default:
		return fmt.Errorf("campaign: assert[%d]: unknown kind %q (want exists, absent, count, order, span_max, or sum_max)", i, s.Kind)
	}
	return nil
}

// ParseAsserts decodes a JSON array of assertion specs, as strictly as
// Parse decodes campaigns.
func ParseAsserts(r io.Reader) ([]AssertSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var specs []AssertSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, decodeError(data, dec, err)
	}
	for i, s := range specs {
		if err := s.validate(i); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// AssertFailure is one unmet expectation, with the evidence rendered.
type AssertFailure struct {
	Spec AssertSpec
	// Msg states what held instead.
	Msg string
	// Timeline is the per-entity virtual-time timeline of the entities
	// the spec ranges over.
	Timeline string
}

func (f AssertFailure) String() string {
	out := fmt.Sprintf("assert %s: %s", f.Spec, f.Msg)
	if f.Timeline != "" {
		out += "\n" + f.Timeline
	}
	return out
}

// CheckAsserts evaluates every spec against the trace and returns the
// failures, in spec order. An empty result means the trace meets every
// expectation.
func CheckAsserts(p *profile.Profiler, specs []AssertSpec) []AssertFailure {
	var fails []AssertFailure
	fail := func(s AssertSpec, format string, args ...any) {
		fails = append(fails, AssertFailure{
			Spec:     s,
			Msg:      fmt.Sprintf(format, args...),
			Timeline: EntityTimeline(p, s.Entity),
		})
	}
	for _, s := range specs {
		switch s.Kind {
		case "exists":
			if p.Count(s.Entity, s.Name) == 0 {
				fail(s, "event never recorded")
			}
		case "absent":
			if n := p.Count(s.Entity, s.Name); n > 0 {
				fail(s, "event recorded %d time(s)", n)
			}
		case "count":
			if n := p.Count(s.Entity, s.Name); n != s.Count {
				fail(s, "count = %d", n)
			}
		case "order":
			a, okA := p.First(s.Entity, s.Name)
			b, okB := p.First(s.Entity, s.Before)
			switch {
			case !okA:
				fail(s, "%s never recorded", s.Name)
			case !okB:
				fail(s, "%s never recorded", s.Before)
			case a >= b:
				fail(s, "%s at %v is not before %s at %v", s.Name, a, s.Before, b)
			}
		case "span_max":
			span, ok := p.Span(s.Entity, s.Start, s.Stop)
			max := time.Duration(s.MaxMS * float64(time.Millisecond))
			switch {
			case !ok:
				fail(s, "span unbounded: %s or %s never recorded", s.Start, s.Stop)
			case span > max:
				fail(s, "span = %v", span)
			}
		case "sum_max":
			sum := p.SumPairs(s.Entity, s.Start, s.Stop)
			if max := time.Duration(s.MaxMS * float64(time.Millisecond)); sum > max {
				fail(s, "sum = %v", sum)
			}
		}
	}
	return fails
}

// EntityTimeline renders the events of every entity matching the
// prefix as per-entity virtual-time timelines — the failure evidence
// format shared by assertion checks and golden diffs.
func EntityTimeline(p *profile.Profiler, prefix string) string {
	byEnt := entityEvents(p, prefix)
	ents := make([]string, 0, len(byEnt))
	for e := range byEnt {
		ents = append(ents, e)
	}
	sort.Strings(ents)
	var b strings.Builder
	for _, e := range ents {
		fmt.Fprintf(&b, "  entity %s\n", e)
		for _, ev := range byEnt[e] {
			fmt.Fprintf(&b, "    %12v  %s\n", ev.T, ev.Name)
		}
	}
	return b.String()
}

// entityEvents groups a profiler's events by entity, each sequence
// sorted by (T, Name). The sort makes the view independent of
// recording interleavings at equal instants, which is what lets a
// golden trace compare against a fresh run at all.
func entityEvents(p *profile.Profiler, prefix string) map[string][]profile.Event {
	byEnt := map[string][]profile.Event{}
	for _, ev := range p.Events() {
		if !strings.HasPrefix(ev.Entity, prefix) {
			continue
		}
		byEnt[ev.Entity] = append(byEnt[ev.Entity], ev)
	}
	for _, evs := range byEnt {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].T != evs[j].T {
				return evs[i].T < evs[j].T
			}
			return evs[i].Name < evs[j].Name
		})
	}
	return byEnt
}
