package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"daredevil/internal/harness"
)

// ddsim runs the real entry point and returns its stdout.
func ddsim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("ddsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// copyScenario copies a shipped scenario into a fresh directory, where the
// files a scenario-armed run writes land.
func copyScenario(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("../../examples/scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseStackKnown: every stack name the -stack help lists resolves to
// that stack, and the run's header names it.
func TestParseStackKnown(t *testing.T) {
	for _, name := range []string{
		"vanilla", "blk-switch", "static-part", "dare-base", "dare-sched", "daredevil",
	} {
		out := ddsim(t, "-stack", name, "-cores", "2", "-l", "1", "-t", "1",
			"-warmup", "1ms", "-measure", "1ms")
		if !strings.Contains(out, "stack="+name+" ") {
			t.Fatalf("-stack %s ran some other stack:\n%s", name, out)
		}
	}
}

// TestParseStackUnknown: an unknown -stack name is a usage error that names
// it, and nothing runs.
func TestParseStackUnknown(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-stack", "bogus"}, &out)
	if !isUsage(err) || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("-stack bogus: got %v, want a usage error naming the stack", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-stack bogus printed output:\n%s", out.String())
	}
}

func TestParsedKindsBuild(t *testing.T) {
	for _, kind := range harness.AllKinds {
		out := ddsim(t, "-stack", string(kind), "-cores", "2", "-l", "1", "-t", "1",
			"-warmup", "1ms", "-measure", "10ms")
		if strings.Contains(out, "(0.00 kIOPS, 0 ops)") {
			t.Fatalf("-stack %s did not produce a working simulation:\n%s", kind, out)
		}
	}
}

func TestRunConfig(t *testing.T) {
	ddsim(t, "-config", "../../examples/scenarios/mixed.json")
	out := ddsim(t, "-config", "../../examples/scenarios/multins.json", "-breakdown")
	if !strings.Contains(out, "L path components") {
		t.Fatalf("-breakdown printed no path components:\n%s", out)
	}
	if err := run([]string{"-config", "/nonexistent.json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRunConfigTraced runs the shipped traced scenario end to end: the
// scenario file arms tracing and metrics itself, and the trace JSON lands
// next to the scenario unless -trace overrides the path.
func TestRunConfigTraced(t *testing.T) {
	path := copyScenario(t, "traced.json")
	ddsim(t, "-config", path)
	out, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".trace.json")
	if err != nil {
		t.Fatalf("scenario-armed trace not written: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("trace output is not valid JSON")
	}
	if !strings.Contains(string(out), "traceEvents") {
		t.Fatal("trace output missing traceEvents envelope")
	}
}

// TestRunConfigProfiled runs the shipped profiled scenario: the scenario
// file arms the layer profiler itself and the mergeable profile JSON lands
// next to the scenario.
func TestRunConfigProfiled(t *testing.T) {
	path := copyScenario(t, "profiled.json")
	ddsim(t, "-config", path)
	out, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".profile.json")
	if err != nil {
		t.Fatalf("scenario-armed profile not written: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("profile output is not valid JSON")
	}
	for _, want := range []string{`"stack": "daredevil"`, `"layer": "queue_wait"`, `"layer": "gc"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("profile output missing %q", want)
		}
	}
}

// TestFlagsMatchConfig runs cells from flags and from the equivalent
// scenario file: apart from the header line, the reports are identical.
// The defaults-only pair checks that every flag default is the scenario's.
func TestFlagsMatchConfig(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		doc   string
	}{
		{[]string{"-cores", "2", "-stack", "vanilla", "-warmup", "20ms", "-measure", "100ms",
			"-seed", "3", "-ftl", "-op", "15", "-fault", "lossy", "-l", "2", "-t", "3", "-trim", "8"},
			`{"cores": 2, "stack": "vanilla", "warmupMs": 20, "measureMs": 100, "seed": 3,
			  "ftl": true, "opPct": 15, "fault": "lossy",
			  "jobs": [{"name": "fio-L", "class": "L", "count": 2},
			           {"name": "fio-T", "class": "T", "count": 3, "trimEvery": 8}]}`},
		{[]string{"-fault", "brownout", "-ftl"},
			`{"fault": "brownout", "ftl": true,
			  "jobs": [{"name": "fio-L", "class": "L", "count": 4},
			           {"name": "fio-T", "class": "T", "count": 8}]}`},
	} {
		path := filepath.Join(t.TempDir(), "same.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		body := func(out string) string {
			_, rest, _ := strings.Cut(out, "\n")
			return rest
		}
		flags := ddsim(t, tc.flags...)
		config := ddsim(t, "-config", path)
		if body(flags) != body(config) {
			t.Fatalf("flag-built and -config reports differ:\n--- flags\n%s--- config\n%s", flags, config)
		}
	}
}

var trimmedRE = regexp.MustCompile(`trimmed=(\d+)`)

// TestNamespacesKeepTrim: -trim applies to every T-tenant whatever the
// namespace count.
func TestNamespacesKeepTrim(t *testing.T) {
	for _, ns := range []string{"1", "2"} {
		out := ddsim(t, "-l", "1", "-t", "2", "-namespaces", ns, "-ftl", "-op", "15",
			"-trim", "8", "-warmup", "10ms", "-measure", "50ms")
		m := trimmedRE.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-namespaces %s: no FTL line:\n%s", ns, out)
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Fatalf("-namespaces %s -trim 8 trimmed nothing:\n%s", ns, out)
		}
	}
}

// TestConfigObsWindowOverride: -obs-window-us replaces the cadence the
// scenario file sets.
func TestConfigObsWindowOverride(t *testing.T) {
	out := ddsim(t, "-config", copyScenario(t, "traced.json"), "-obs-window-us", "1000")
	_, csv, ok := strings.Cut(out, "t_us,")
	if !ok {
		t.Fatalf("no gauge CSV:\n%s", out)
	}
	rows := strings.SplitN(csv, "\n", 4)
	if len(rows) < 3 || !strings.HasPrefix(rows[2], "1000.000,") {
		t.Fatalf("second sample not at 1000 µs: %q", rows)
	}
}

// TestConfigTraceLimitOverride: -trace-limit caps the spans of a
// scenario-armed trace, with or without -trace.
func TestConfigTraceLimitOverride(t *testing.T) {
	events := func(path string) int {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.TraceEvents)
	}
	path := copyScenario(t, "traced.json")
	written := strings.TrimSuffix(path, ".json") + ".trace.json"
	ddsim(t, "-config", path)
	full := events(written)
	ddsim(t, "-config", path, "-trace-limit", "10")
	if n := events(written); n*10 > full {
		t.Fatalf("-trace-limit 10 recorded %d events; the scenario's budget records %d", n, full)
	}
	named := filepath.Join(t.TempDir(), "named.json")
	ddsim(t, "-config", path, "-trace", named, "-trace-limit", "10")
	if n := events(named); n*10 > full {
		t.Fatalf("-trace -trace-limit 10 recorded %d events; the scenario's budget records %d", n, full)
	}
}

// TestUsageErrors: bad invocations fail as usage errors (exit status 2)
// before running anything.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-stack", "bogus"},
		{"-fault", "meteor"},
		{"-ftl", "-op", "95"},
		{"-j", "0"},
		{"-warmup", "1500us"},
		{"-measure", "0s"},
		{"-trace-limit", "10"},
		{"-config", copyScenario(t, "mixed.json"), "-l", "2"},
	} {
		if err := run(args, &bytes.Buffer{}); !isUsage(err) {
			t.Errorf("ddsim %s: got %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}

// TestCompareRejectsObsFlags: -compare prints one line per stack, so the
// flags whose output it would drop are usage errors, and no file is
// written.
func TestCompareRejectsObsFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	for _, args := range [][]string{
		{"-prof", out},
		{"-trace", out},
		{"-obs-window-us", "1000"},
		{"-breakdown"},
		{"-stack", "vanilla"},
		{"-config", copyScenario(t, "traced.json")},
	} {
		args = append([]string{"-compare"}, args...)
		if err := run(args, &bytes.Buffer{}); !isUsage(err) {
			t.Errorf("ddsim %s: got %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected -compare wrote its output file")
	}
}

func isUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// TestCompareConfig sweeps a scenario file over every stack.
func TestCompareConfig(t *testing.T) {
	out := ddsim(t, "-compare", "-j", "2", "-config", copyScenario(t, "faulty.json"), "-measure", "100ms")
	for _, kind := range harness.AllKinds {
		if !strings.Contains(out, "\n  "+string(kind)+" ") {
			t.Fatalf("comparison has no %s row:\n%s", kind, out)
		}
	}
}
