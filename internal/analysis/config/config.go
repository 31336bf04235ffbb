// Package config holds the shared configuration for the ddvet analyzers:
// which packages are "sim-ordered" (run inside a deterministic simulation
// cell and therefore must not observe wall clocks, scheduler interleaving,
// or map iteration order), which packages are sanctioned doorways to the
// wall clock, blanket exemptions, and the unit-type dimensions checked by
// the unitcheck analyzer.
//
// The defaults baked into Default() describe this repository and are the
// one source of its settings; analyzer tests and `make lint` run under the
// same lists. A `.ddvet.json` file at the module root overrides fields
// wholesale; this repository's names only its documented exemptions.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Exemption switches off a set of analyzers for packages matching Path.
type Exemption struct {
	// Path is an import path, or a prefix pattern ending in "/..." which
	// matches the prefix and everything below it.
	Path string `json:"path"`
	// Analyzers lists analyzer names to disable; ["*"] disables all.
	Analyzers []string `json:"analyzers"`
	// Reason documents why the exemption exists. Required: an allowlist
	// entry without a rationale is as bad as an unchecked invariant.
	Reason string `json:"reason"`
}

// Config is the ddvet suite configuration.
type Config struct {
	// SimPackages are the sim-ordered packages: everything that executes on
	// a sim.Engine event loop and must stay bit-deterministic.
	SimPackages []string `json:"simPackages"`

	// WallclockOK lists packages allowed to read the host wall clock
	// directly (time.Now and friends). Everything else in the module must
	// go through one of these packages, which makes the simulated-time /
	// host-time boundary a single reviewed seam.
	WallclockOK []string `json:"wallclockOK"`

	// Exempt lists blanket analyzer exemptions (e.g. demo code).
	Exempt []Exemption `json:"exempt"`

	// UnitDimensions groups named integer types into physical dimensions
	// for unitcheck, keyed by dimension name. A type is written as
	// "import/path.TypeName". Converting between types of different
	// dimensions (ticks into byte counts) is flagged; converting within a
	// dimension is flagged too outside annotated unit-algebra helpers.
	UnitDimensions map[string][]string `json:"unitDimensions"`

	// PointTypes are "absolute instant" types: adding or multiplying two
	// values of the same point type is dimensionally meaningless
	// (Time+Time), unlike span types (Duration+Duration).
	PointTypes []string `json:"pointTypes"`

	// SlabPackages are the packages whose slab/pool allocators slabsafety
	// polices: values recycled through free-lists there are deliberately
	// left stale (PR 7's write-barrier policy), so a post-free field touch
	// is a silent aliasing bug rather than a crash.
	SlabPackages []string `json:"slabPackages"`

	// GuardFields are the boolean lifecycle-guard field names slabsafety's
	// dominance rule recognizes (the live-flag double-free guard and the
	// park/pending flags): a free-list append must be reached through a
	// test of one of these, and a post-free access under such a test is
	// sanctioned re-checking, not a use-after-free.
	GuardFields []string `json:"guardFields"`

	// NilSafeHooks are observability hook methods ("pkg/path.Type.Method")
	// that are documented safe to call on a nil receiver; obscost requires
	// every other obs call on a hot path to be dominated by a nil check.
	NilSafeHooks []string `json:"nilSafeHooks"`

	// ObsPackages are the observability packages whose hook call sites
	// obscost audits on hot paths.
	ObsPackages []string `json:"obsPackages"`
}

// Default returns the configuration describing this repository.
func Default() *Config {
	return &Config{
		SimPackages: []string{
			"daredevil/internal/sim",
			"daredevil/internal/cpus",
			"daredevil/internal/nvme",
			"daredevil/internal/flash",
			"daredevil/internal/ftl",
			"daredevil/internal/blkmq",
			"daredevil/internal/blkswitch",
			"daredevil/internal/staticpart",
			"daredevil/internal/kyber",
			"daredevil/internal/workload",
			"daredevil/internal/stackbase",
			"daredevil/internal/block",
			"daredevil/internal/core",
			"daredevil/internal/fault",
			"daredevil/internal/obs",
			"daredevil/internal/scenario",
			"daredevil/internal/stats",
			"daredevil/internal/prof",
		},
		WallclockOK: []string{
			"daredevil/internal/walltime",
		},
		UnitDimensions: map[string][]string{
			"simtime": {
				"daredevil/internal/sim.Time",
				"daredevil/internal/sim.Duration",
			},
		},
		PointTypes: []string{
			"daredevil/internal/sim.Time",
		},
		SlabPackages: []string{
			"daredevil/internal/sim",
			"daredevil/internal/nvme",
			"daredevil/internal/block",
			"daredevil/internal/core",
			"daredevil/internal/workload",
			"daredevil/internal/stackbase",
			"daredevil/internal/ftl",
		},
		GuardFields: []string{
			"live", "parked", "pendingDone", "pendingAbort", "stopped", "fired",
		},
		NilSafeHooks: []string{
			"daredevil/internal/obs.Ring.Record",
			"daredevil/internal/obs.Span.End",
			"daredevil/internal/obs.Span.Child",
			"daredevil/internal/obs.Flight.Trigger",
			"daredevil/internal/obs.Flight.Dumps",
			"daredevil/internal/obs.Tracer.RecordInstant",
			"daredevil/internal/obs.Tracer.RecordGC",
			"daredevil/internal/prof.Profiler.ConsumeSpan",
			"daredevil/internal/prof.Profiler.Reset",
		},
		ObsPackages: []string{
			"daredevil/internal/obs",
			"daredevil/internal/prof",
		},
	}
}

// Load reads path as JSON on top of Default(). Fields present in the file
// replace the default value wholesale (no per-element merging), so the file
// is always the complete truth for the fields it names.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := Default()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	for _, e := range cfg.Exempt {
		if e.Reason == "" {
			return nil, fmt.Errorf("config %s: exemption for %q has no reason", path, e.Path)
		}
		if len(e.Analyzers) == 0 {
			return nil, fmt.Errorf("config %s: exemption for %q names no analyzers", path, e.Path)
		}
	}
	return cfg, nil
}

// matchPattern reports whether the import path matches pattern, where a
// pattern ending in "/..." matches the prefix and every package below it.
func matchPattern(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}

// IsSimPackage reports whether the package at path is sim-ordered.
func (c *Config) IsSimPackage(path string) bool {
	for _, p := range c.SimPackages {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}

// WallclockAllowed reports whether the package may touch the wall clock.
func (c *Config) WallclockAllowed(path string) bool {
	for _, p := range c.WallclockOK {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}

// Exempted reports whether analyzer is switched off for the package.
func (c *Config) Exempted(path, analyzer string) bool {
	for _, e := range c.Exempt {
		if !matchPattern(e.Path, path) {
			continue
		}
		for _, a := range e.Analyzers {
			if a == "*" || a == analyzer {
				return true
			}
		}
	}
	return false
}

// Dimension returns the dimension name for the fully-qualified type
// "pkg/path.Name", or "" if the type carries no unit.
func (c *Config) Dimension(qualified string) string {
	for dim, types := range c.UnitDimensions {
		for _, t := range types {
			if t == qualified {
				return dim
			}
		}
	}
	return ""
}

// IsPointType reports whether the fully-qualified type is an absolute
// instant (point) type.
func (c *Config) IsPointType(qualified string) bool {
	for _, t := range c.PointTypes {
		if t == qualified {
			return true
		}
	}
	return false
}

// IsSlabPackage reports whether slabsafety polices the package at path.
func (c *Config) IsSlabPackage(path string) bool {
	for _, p := range c.SlabPackages {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}

// IsGuardField reports whether name is a recognized lifecycle-guard field.
func (c *Config) IsGuardField(name string) bool {
	for _, g := range c.GuardFields {
		if g == name {
			return true
		}
	}
	return false
}

// IsNilSafeHook reports whether the method "pkg/path.Type.Method" is
// documented nil-receiver-safe.
func (c *Config) IsNilSafeHook(qualified string) bool {
	for _, h := range c.NilSafeHooks {
		if h == qualified {
			return true
		}
	}
	return false
}

// IsObsPackage reports whether the package at path is an observability
// package whose hooks obscost audits.
func (c *Config) IsObsPackage(path string) bool {
	for _, p := range c.ObsPackages {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}
