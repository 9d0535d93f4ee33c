package gcsim

import (
	"errors"
	"fmt"
	"strings"
)

// Validate checks the configuration for option combinations the selected
// collector would silently ignore. Historically NewRuntime dropped such
// options on the floor — a Config{Collector: Semispace, CardTable: true}
// ran the plain semispace collector and the caller's barrier "ablation"
// measured nothing. Every mismatch is now an error naming the field and
// the collector choice it requires; NewRuntime panics on an invalid
// configuration rather than running a quietly different experiment.
//
// The rules specific to CollectorChoice live here; the collector-shape
// rules every front end shares are harness.Spec.Validate's.
func (c Config) Validate() error {
	if c.Collector < Generational || c.Collector > GenerationalFull {
		return fmt.Errorf("unknown Collector %d", c.Collector)
	}
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// MarkerN selects the §5 stack-marker spacing. Plain Generational
	// deliberately runs without markers (it is the paper's "before"
	// configuration), so a spacing there would be ignored.
	if c.MarkerN != 0 && c.Collector == Generational {
		bad("MarkerN is set but Collector Generational scans the full stack; use GenerationalMarkers, GenerationalFull, or Semispace")
	}
	switch c.Collector {
	case GenerationalFull:
		if c.Pretenure == nil {
			bad("Collector GenerationalFull requires a Pretenure policy (see PolicyFromProfile); use GenerationalMarkers for markers without pretenuring")
		}
	case Generational, GenerationalMarkers:
		if c.Pretenure != nil {
			bad("Pretenure policy is set but Collector %v ignores it; use GenerationalFull", c.Collector)
		}
		if c.ScanElision {
			bad("ScanElision is set but Collector %v has no pretenured region to elide; use GenerationalFull", c.Collector)
		}
	}
	if c.SiteNames != nil && !c.Profile {
		bad("SiteNames is set but Profile is off, so no report would ever use the names")
	}
	errs = append(errs, c.spec().Validate())
	return errors.Join(errs...)
}

// String names the collector choice in error messages.
func (c CollectorChoice) String() string {
	switch c {
	case Generational:
		return "Generational"
	case Semispace:
		return "Semispace"
	case GenerationalMarkers:
		return "GenerationalMarkers"
	case GenerationalFull:
		return "GenerationalFull"
	}
	return fmt.Sprintf("CollectorChoice(%d)", int(c))
}

// mustValidate panics with every validation error on one line per
// problem, so a misconfigured experiment fails at construction with the
// full list instead of at the first field someone happens to notice.
func mustValidate(c Config) {
	if err := c.Validate(); err != nil {
		msg := strings.ReplaceAll(err.Error(), "\n", "\n  ")
		panic("gcsim: invalid Config:\n  " + msg)
	}
}
