// Package scenario defines the declarative JSON scenario format shared by
// the ddsim CLI and the ddserve capacity-planning daemon. A Scenario
// describes one multi-tenant cell (machine, stack, windows, tenant jobs,
// fault/FTL/observability switches) and materializes into a
// harness.CellSpec; the ddserve extensions — a seed shift and sweep axes —
// turn one document into a deterministic grid of cells.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Scenario is a declarative multi-tenant experiment, loadable from JSON
// (ddsim -config, ddserve request bodies). Example:
//
//	{
//	  "machine": "svm", "cores": 4, "stack": "daredevil",
//	  "namespaces": 1, "warmupMs": 100, "measureMs": 400,
//	  "jobs": [
//	    {"name": "db",     "class": "L", "count": 4},
//	    {"name": "backup", "class": "T", "count": 16, "outlierEvery": 8}
//	  ]
//	}
//
// Job fields omit to the paper's defaults for the class (4KB rand qd=1 for
// L, 128KB qd=32 streaming writes for T).
type Scenario struct {
	// Machine is "svm" (default) or "wsm".
	Machine string `json:"machine,omitempty"`
	// Cores applies to the svm machine (default 4).
	Cores int `json:"cores,omitempty"`
	// Stack names the storage stack (default "daredevil").
	Stack string `json:"stack,omitempty"`
	// Namespaces divides the SSD (default 1).
	Namespaces int `json:"namespaces,omitempty"`
	// WarmupMs and MeasureMs set the windows in virtual milliseconds
	// (defaults 100/400).
	WarmupMs  int `json:"warmupMs,omitempty"`
	MeasureMs int `json:"measureMs,omitempty"`

	// Seed shifts every tenant's random stream, for re-running an
	// otherwise-identical scenario with fresh draws (default 0 keeps the
	// canonical streams). Part of the ddserve cache key.
	Seed uint64 `json:"seed,omitempty"`

	// FTL runs the scenario on an aged device with the page-mapped
	// translation layer (garbage collection, wear leveling, TRIM) between
	// the controller and the media. The remaining FTL fields only apply
	// when it is true.
	FTL bool `json:"ftl,omitempty"`
	// OPPct overrides the device's over-provisioning percentage
	// (default 7).
	OPPct float64 `json:"opPct,omitempty"`
	// PreconditionPct / ScramblePct override how much of the logical space
	// preconditioning fills and then overwrites (defaults 100/30). Nil
	// keeps the default; explicit 0 disables that phase.
	PreconditionPct *int `json:"preconditionPct,omitempty"`
	ScramblePct     *int `json:"scramblePct,omitempty"`

	// Fault names a canned fault profile ("brownout", "lossy", "wearout")
	// to run the scenario under: the fault window covers the second
	// quarter of the measurement phase and host recovery (command expiry →
	// Abort → controller reset, stack requeue) is armed. Empty runs a
	// healthy device. The remaining fault fields only apply when it is
	// set.
	Fault string `json:"fault,omitempty"`
	// FaultSeed keys the dedicated fault RNG stream (default 42).
	FaultSeed uint64 `json:"faultSeed,omitempty"`
	// CmdTimeoutUs overrides the host's per-command expiry in
	// microseconds (default: a quarter of the measurement phase).
	CmdTimeoutUs int64 `json:"cmdTimeoutUs,omitempty"`

	// Trace captures per-request lifecycle spans (and arms the flight
	// recorder). ddsim writes the Chrome trace-event JSON next to the
	// scenario file unless its -trace flag names another path; ddserve
	// stores the JSON as a per-cell artifact.
	Trace bool `json:"trace,omitempty"`
	// TraceLimit caps the captured spans (0 = default budget). Requires
	// "trace": true.
	TraceLimit int `json:"traceLimit,omitempty"`
	// ObsWindowUs samples the machine's gauge set every this many virtual
	// microseconds; ddsim prints the CSV after the summary, ddserve stores
	// CSV and sparkline-SVG artifacts.
	ObsWindowUs int64 `json:"obsWindowUs,omitempty"`
	// Profile streams every request span through the virtual-time profiler
	// and emits the per-layer latency breakdown; ddsim writes the profile
	// JSON via -prof, ddserve stores table/folded/SVG artifacts.
	Profile bool `json:"profile,omitempty"`

	Jobs []Job `json:"jobs"`

	// Sweep is the ddserve grid extension: each axis multiplies the
	// scenario into one cell per value (cartesian product across axes).
	// ddsim runs single cells only and rejects scenarios with sweep axes.
	Sweep []Axis `json:"sweep,omitempty"`
}

// Job describes one group of identical tenants.
type Job struct {
	Name  string `json:"name"`
	Class string `json:"class"` // "L" or "T"
	Count int    `json:"count"`

	// Optional overrides (zero = class default).
	BS           int64  `json:"bs,omitempty"`
	IODepth      int    `json:"iodepth,omitempty"`
	ReadPct      *int   `json:"readPct,omitempty"`
	Pattern      string `json:"pattern,omitempty"` // "random" or "sequential"
	Core         *int   `json:"core,omitempty"`
	Namespace    int    `json:"namespace,omitempty"`
	OutlierEvery int    `json:"outlierEvery,omitempty"`
	// ArrivalUs switches the job to an open loop with this mean
	// inter-arrival time in microseconds.
	ArrivalUs int64 `json:"arrivalUs,omitempty"`
	SpanMB    int64 `json:"spanMB,omitempty"`
	// TrimEvery replaces every Nth request with an NVMe Deallocate (TRIM)
	// sweeping the job's span. Only meaningful on an FTL-backed device.
	TrimEvery int `json:"trimEvery,omitempty"`
}

// Axis is one sweep dimension: a scenario parameter and the values it
// takes. Numeric parameters list Values; the "stack" parameter lists
// Stacks.
type Axis struct {
	// Param names the swept parameter: "stack", "cores", "namespaces",
	// "seed", or a per-job field "count:<job>", "iodepth:<job>",
	// "arrivalUs:<job>", "outlierEvery:<job>", "trimEvery:<job>".
	Param string `json:"param"`
	// Values are the numeric settings for every param except "stack".
	Values []int `json:"values,omitempty"`
	// Stacks are the settings for the "stack" param.
	Stacks []string `json:"stacks,omitempty"`
}

// Len reports the number of settings on the axis.
func (a Axis) Len() int {
	if a.Param == "stack" {
		return len(a.Stacks)
	}
	return len(a.Values)
}

// Parse decodes and validates a JSON scenario.
func Parse(data []byte) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return sc, fmt.Errorf("daredevil: invalid scenario JSON: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Validate checks the scenario, including any sweep axes.
func (sc Scenario) Validate() error {
	switch sc.Machine {
	case "", "svm", "wsm":
	default:
		return fmt.Errorf("daredevil: unknown machine %q (want svm or wsm)", sc.Machine)
	}
	if sc.Cores < 0 || sc.Namespaces < 0 || sc.WarmupMs < 0 || sc.MeasureMs < 0 {
		return fmt.Errorf("daredevil: negative scenario parameter")
	}
	if sc.Stack != "" {
		if _, err := StackKindOf(sc.Stack); err != nil {
			return err
		}
	}
	if !sc.FTL && (sc.OPPct != 0 || sc.PreconditionPct != nil || sc.ScramblePct != nil) {
		return fmt.Errorf("daredevil: opPct/preconditionPct/scramblePct require \"ftl\": true")
	}
	if sc.FTL {
		if err := sc.ftlConfig().Validate(); err != nil {
			return fmt.Errorf("daredevil: invalid FTL scenario: %w", err)
		}
	}
	switch sc.Fault {
	case "", string(harness.FaultBrownout), string(harness.FaultLossy), string(harness.FaultWearout):
	default:
		return fmt.Errorf("daredevil: unknown fault profile %q (want brownout, lossy, or wearout)", sc.Fault)
	}
	if sc.Fault == "" && (sc.FaultSeed != 0 || sc.CmdTimeoutUs != 0) {
		return fmt.Errorf("daredevil: faultSeed/cmdTimeoutUs require \"fault\"")
	}
	if sc.CmdTimeoutUs < 0 {
		return fmt.Errorf("daredevil: negative cmdTimeoutUs")
	}
	if !sc.Trace && sc.TraceLimit != 0 {
		return fmt.Errorf("daredevil: traceLimit requires \"trace\": true")
	}
	if sc.TraceLimit < 0 || sc.ObsWindowUs < 0 {
		return fmt.Errorf("daredevil: negative traceLimit/obsWindowUs")
	}
	if len(sc.Jobs) == 0 {
		return fmt.Errorf("daredevil: scenario has no jobs")
	}
	for i, j := range sc.Jobs {
		switch j.Class {
		case "L", "T":
		default:
			return fmt.Errorf("daredevil: job %d (%q): class must be \"L\" or \"T\"", i, j.Name)
		}
		if j.Count <= 0 {
			return fmt.Errorf("daredevil: job %d (%q): count must be positive", i, j.Name)
		}
		switch j.Pattern {
		case "", "random", "sequential":
		default:
			return fmt.Errorf("daredevil: job %d (%q): unknown pattern %q", i, j.Name, j.Pattern)
		}
		if j.BS < 0 || j.IODepth < 0 || j.OutlierEvery < 0 || j.ArrivalUs < 0 || j.SpanMB < 0 || j.TrimEvery < 0 {
			return fmt.Errorf("daredevil: job %d (%q): negative parameter", i, j.Name)
		}
		if j.Core != nil && *j.Core < 0 {
			return fmt.Errorf("daredevil: job %d (%q): negative core %d", i, j.Name, *j.Core)
		}
		ns := sc.Namespaces
		if ns < 1 {
			ns = 1
		}
		if j.Namespace < 0 || j.Namespace >= ns {
			return fmt.Errorf("daredevil: job %d (%q): namespace %d out of [0,%d)", i, j.Name, j.Namespace, ns)
		}
	}
	for i, ax := range sc.Sweep {
		if err := sc.validateAxis(ax); err != nil {
			return fmt.Errorf("daredevil: sweep axis %d: %w", i, err)
		}
	}
	return nil
}

// validateAxis checks one sweep axis against the base scenario.
func (sc Scenario) validateAxis(ax Axis) error {
	if ax.Param == "stack" {
		if len(ax.Stacks) == 0 {
			return fmt.Errorf("param %q needs \"stacks\"", ax.Param)
		}
		if len(ax.Values) != 0 {
			return fmt.Errorf("param %q takes \"stacks\", not \"values\"", ax.Param)
		}
		for _, s := range ax.Stacks {
			if _, err := StackKindOf(s); err != nil {
				return err
			}
		}
		return nil
	}
	if len(ax.Stacks) != 0 {
		return fmt.Errorf("param %q takes \"values\", not \"stacks\"", ax.Param)
	}
	if len(ax.Values) == 0 {
		return fmt.Errorf("param %q needs \"values\"", ax.Param)
	}
	for _, v := range ax.Values {
		if _, err := sc.WithParam(ax.Param, v); err != nil {
			return err
		}
	}
	return nil
}

// StackKindOf resolves a stack name to its kind.
func StackKindOf(name string) (harness.StackKind, error) {
	for _, k := range harness.AllKinds {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("daredevil: unknown stack %q", name)
}

// WithParam returns a deep copy of the scenario with one swept parameter
// set, leaving the receiver untouched. Job-scoped params use the form
// "<field>:<job name>" and require the job name to be unique.
func (sc Scenario) WithParam(param string, value int) (Scenario, error) {
	out := sc
	out.Jobs = append([]Job(nil), sc.Jobs...)
	out.Sweep = nil
	switch param {
	case "cores":
		if value <= 0 {
			return out, fmt.Errorf("param %q: value %d must be positive", param, value)
		}
		out.Cores = value
		return out, nil
	case "namespaces":
		if value <= 0 {
			return out, fmt.Errorf("param %q: value %d must be positive", param, value)
		}
		out.Namespaces = value
		return out, nil
	case "seed":
		if value < 0 {
			return out, fmt.Errorf("param %q: value %d must be non-negative", param, value)
		}
		out.Seed = uint64(value)
		return out, nil
	case "stack":
		return out, fmt.Errorf("param \"stack\" is swept via \"stacks\", not numeric values")
	}
	field, name, ok := strings.Cut(param, ":")
	if !ok {
		return out, fmt.Errorf("unknown sweep param %q", param)
	}
	idx := -1
	for i, j := range out.Jobs {
		if j.Name == name {
			if idx >= 0 {
				return out, fmt.Errorf("param %q: job name %q is not unique", param, name)
			}
			idx = i
		}
	}
	if idx < 0 {
		return out, fmt.Errorf("param %q: no job named %q", param, name)
	}
	if value < 0 {
		return out, fmt.Errorf("param %q: value %d must be non-negative", param, value)
	}
	j := out.Jobs[idx]
	switch field {
	case "count":
		if value <= 0 {
			return out, fmt.Errorf("param %q: count must be positive", param)
		}
		j.Count = value
	case "iodepth":
		j.IODepth = value
	case "arrivalUs":
		j.ArrivalUs = int64(value)
	case "outlierEvery":
		j.OutlierEvery = value
	case "trimEvery":
		j.TrimEvery = value
	case "bs":
		j.BS = int64(value)
	case "spanMB":
		j.SpanMB = int64(value)
	default:
		return out, fmt.Errorf("unknown sweep param %q", param)
	}
	out.Jobs[idx] = j
	return out, nil
}

// WithStack returns a copy of the scenario on the named stack.
func (sc Scenario) WithStack(name string) (Scenario, error) {
	if _, err := StackKindOf(name); err != nil {
		return sc, err
	}
	out := sc
	out.Jobs = append([]Job(nil), sc.Jobs...)
	out.Sweep = nil
	out.Stack = name
	return out, nil
}

// Point is one cell of an expanded sweep grid: the concrete scenario plus
// the axis settings that produced it, in axis order.
type Point struct {
	// Labels maps "param=value" in axis order (e.g. ["stack=vanilla",
	// "count:backup=16"]); empty for a sweep-free scenario.
	Labels []string
	// Scenario is the concrete single-cell scenario (Sweep cleared).
	Scenario Scenario
}

// GridSize reports the number of cells the sweep expands to (1 when there
// are no axes).
func (sc Scenario) GridSize() int {
	n := 1
	for _, ax := range sc.Sweep {
		n *= ax.Len()
	}
	return n
}

// Expand materializes the sweep grid in deterministic order: the last axis
// varies fastest, like nested loops written in axis order.
func (sc Scenario) Expand() ([]Point, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	base := sc
	base.Sweep = nil
	points := []Point{{Scenario: base}}
	for _, ax := range sc.Sweep {
		next := make([]Point, 0, len(points)*ax.Len())
		for _, p := range points {
			if ax.Param == "stack" {
				for _, s := range ax.Stacks {
					cur, err := p.Scenario.WithStack(s)
					if err != nil {
						return nil, err
					}
					next = append(next, Point{
						Labels:   appendLabel(p.Labels, ax.Param, s),
						Scenario: cur,
					})
				}
				continue
			}
			for _, v := range ax.Values {
				cur, err := p.Scenario.WithParam(ax.Param, v)
				if err != nil {
					return nil, err
				}
				next = append(next, Point{
					Labels:   appendLabel(p.Labels, ax.Param, fmt.Sprintf("%d", v)),
					Scenario: cur,
				})
			}
		}
		points = next
	}
	return points, nil
}

func appendLabel(labels []string, param, value string) []string {
	out := make([]string, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, param+"="+value)
}

// Canonical renders the scenario as canonical JSON for hashing: struct
// field order is fixed, zero-valued optional fields are omitted, and sweep
// axes are excluded (a grid cell hashes as the concrete scenario it runs).
func (sc Scenario) Canonical() []byte {
	c := sc
	c.Sweep = nil
	data, err := json.Marshal(c)
	if err != nil {
		// Scenario contains only marshalable fields; this cannot fail.
		panic(fmt.Sprintf("scenario: canonical marshal: %v", err))
	}
	return data
}

// Hash returns the hex SHA-256 of the canonical encoding — the
// scenario-hash component of the ddserve cache key.
func (sc Scenario) Hash() string {
	sum := sha256.Sum256(sc.Canonical())
	return hex.EncodeToString(sum[:])
}

// CellSpec materializes the scenario into a harness cell spec. Scenarios
// with sweep axes describe grids, not cells — expand them first (ddserve)
// or drop the sweep (ddsim reports an error).
func (sc Scenario) CellSpec() (harness.CellSpec, error) {
	var spec harness.CellSpec
	if err := sc.Validate(); err != nil {
		return spec, err
	}
	if len(sc.Sweep) > 0 {
		return spec, fmt.Errorf("daredevil: scenario has sweep axes; expand the grid (ddserve) or remove \"sweep\" for a single ddsim run")
	}
	var m harness.Machine
	if sc.Machine == "wsm" {
		m = harness.WSM()
	} else {
		cores := sc.Cores
		if cores == 0 {
			cores = 4
		}
		m = harness.SVM(cores)
	}
	kind := harness.DareFull
	if sc.Stack != "" {
		kind, _ = StackKindOf(sc.Stack)
	}
	if sc.FTL {
		fcfg := sc.ftlConfig()
		m.FTL = &fcfg
	}
	warm := sim.Duration(sc.WarmupMs) * sim.Millisecond
	if warm == 0 {
		warm = 100 * sim.Millisecond
	}
	measure := sim.Duration(sc.MeasureMs) * sim.Millisecond
	if measure == 0 {
		measure = 400 * sim.Millisecond
	}
	if sc.Fault != "" {
		seed := sc.FaultSeed
		if seed == 0 {
			seed = harness.DefaultFaultSeed
		}
		fs := harness.ExtFaultSchedule(harness.FaultProfile(sc.Fault), seed,
			warm+measure/4, warm+measure/2)
		m.Fault = &fs
		if sc.CmdTimeoutUs > 0 {
			m.NVMe.CmdTimeout = sim.Duration(sc.CmdTimeoutUs) * sim.Microsecond
		} else {
			// Keep expiry well above the device's legitimate tail under
			// load; a too-short timeout cascades into false-abort reset
			// storms.
			m.NVMe.CmdTimeout = measure / 4
		}
	}
	spec = harness.CellSpec{
		Machine:    m,
		Kind:       kind,
		Namespaces: sc.Namespaces,
		Warmup:     warm,
		Measure:    measure,
		Trace:      sc.Trace,
		TraceLimit: sc.TraceLimit,
		Profile:    sc.Profile,
	}
	if sc.ObsWindowUs > 0 {
		spec.MetricsWindow = sim.Duration(sc.ObsWindowUs) * sim.Microsecond
	}
	tenantIdx := 0
	for _, j := range sc.Jobs {
		for i := 0; i < j.Count; i++ {
			core := tenantIdx % m.Cores
			if j.Core != nil {
				core = *j.Core % m.Cores
			}
			var cfg workload.FIOConfig
			if j.Class == "L" {
				cfg = workload.DefaultLTenant(j.Name, core)
			} else {
				cfg = workload.DefaultTTenant(j.Name, core)
			}
			if j.BS > 0 {
				cfg.BS = j.BS
			}
			if j.IODepth > 0 {
				cfg.IODepth = j.IODepth
			}
			if j.ReadPct != nil {
				cfg.ReadPct = *j.ReadPct
			}
			switch j.Pattern {
			case "random":
				cfg.Pattern = workload.Random
			case "sequential":
				cfg.Pattern = workload.Sequential
			}
			cfg.Namespace = j.Namespace
			cfg.OutlierEvery = j.OutlierEvery
			if j.ArrivalUs > 0 {
				cfg.Arrival = sim.Duration(j.ArrivalUs) * sim.Microsecond
			}
			if j.SpanMB > 0 {
				cfg.Span = j.SpanMB << 20
			}
			cfg.TrimEvery = j.TrimEvery
			cfg.Seed += uint64(tenantIdx)*9176 + sc.Seed
			spec.Jobs = append(spec.Jobs, cfg)
			tenantIdx++
		}
	}
	return spec, nil
}

// ftlConfig materializes the scenario's FTL fields over the defaults.
func (sc Scenario) ftlConfig() ftl.Config {
	cfg := ftl.DefaultConfig()
	if sc.OPPct != 0 {
		cfg.OPPct = sc.OPPct
	}
	if sc.PreconditionPct != nil {
		cfg.PreconditionPct = *sc.PreconditionPct
	}
	if sc.ScramblePct != nil {
		cfg.ScramblePct = *sc.ScramblePct
	}
	return cfg
}
