package daredevil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSimulationBasicRun(t *testing.T) {
	sim := NewSimulation(ServerMachine(4), StackDaredevil)
	sim.AddLTenants(4)
	sim.AddTTenants(8)
	res := sim.Run(20*Millisecond, 80*Millisecond)
	if res.LTenantLatency.Count == 0 {
		t.Fatal("no L completions")
	}
	if res.TThroughputMBps <= 0 {
		t.Fatal("no T throughput")
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization > 1 {
		t.Fatalf("CPU utilization = %v", res.CPUUtilization)
	}
}

func TestSimulationStackNames(t *testing.T) {
	names := map[StackKind]string{
		StackVanilla:    "vanilla",
		StackBlkSwitch:  "blk-switch",
		StackStaticPart: "static-part",
		StackDareBase:   "dare-base",
		StackDareSched:  "dare-sched",
		StackDaredevil:  "dare-full",
	}
	for kind, want := range names {
		sim := NewSimulation(ServerMachine(2), kind)
		if got := sim.StackName(); got != want {
			t.Errorf("StackName(%s) = %q, want %q", kind, got, want)
		}
	}
}

func TestSimulationRunTwicePanics(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackVanilla)
	sim.AddLTenants(1)
	sim.Run(Millisecond, 5*Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run must panic")
		}
	}()
	sim.Run(Millisecond, 5*Millisecond)
}

func TestSimulationNamespaces(t *testing.T) {
	sim := NewSimulation(ServerMachine(4), StackDaredevil)
	sim.CreateNamespaces(4)
	sim.AddLTenantsNS(2, 0)
	sim.AddTTenantsNS(8, 1)
	sim.AddTTenantsNS(8, 2)
	res := sim.Run(20*Millisecond, 60*Millisecond)
	if res.LTenantLatency.Count == 0 || res.TTenantLatency.Count == 0 {
		t.Fatal("namespace workloads did not run")
	}
}

func TestSimulationCustomJob(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackDaredevil)
	cfg := DefaultLTenantConfig("custom", 0)
	cfg.BS = 8192
	sim.AddJob(cfg)
	res := sim.Run(10*Millisecond, 30*Millisecond)
	if res.LTenantLatency.Count == 0 {
		t.Fatal("custom job did not run")
	}
}

func TestSimulationYCSBApp(t *testing.T) {
	sim := NewSimulation(ServerMachine(4), StackDaredevil)
	sim.AddTTenants(4)
	app := sim.AddYCSB(YCSBA, 0, 2)
	sim.Run(20*Millisecond, 100*Millisecond)
	if app.Ops() == 0 {
		t.Fatal("YCSB app completed no operations")
	}
	if app.OpLatency(OpUpdate).Count == 0 {
		t.Fatal("no update latencies recorded")
	}
}

func TestSimulationMailApp(t *testing.T) {
	sim := NewSimulation(ServerMachine(4), StackVanilla)
	app := sim.AddMailserver(0)
	sim.Run(20*Millisecond, 100*Millisecond)
	if app.OpLatency(OpFsync).Count == 0 {
		t.Fatal("no fsync latencies recorded")
	}
}

func TestDaredevilBeatsVanillaViaPublicAPI(t *testing.T) {
	run := func(kind StackKind) Result {
		sim := NewSimulation(ServerMachine(4), kind)
		sim.AddLTenants(4)
		sim.AddTTenants(16)
		return sim.Run(30*Millisecond, 120*Millisecond)
	}
	dd := run(StackDaredevil)
	van := run(StackVanilla)
	if dd.LTenantLatency.Mean*3 >= van.LTenantLatency.Mean {
		t.Fatalf("daredevil (%v) should be well below vanilla (%v)",
			dd.LTenantLatency.Mean, van.LTenantLatency.Mean)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := RunExperiment(&bytes.Buffer{}, "nope", QuickScale); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table1", QuickScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vanilla", "blk-switch", "daredevil", "multi-namespace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentNamesComplete(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 18 {
		t.Fatalf("got %d experiments, want 18 (table1 + 10 figures + 7 extensions)", len(names))
	}
	// Every listed experiment must dispatch (checked cheaply via fig2 only
	// plus the name validation of the rest).
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate experiment %q", n)
		}
		seen[n] = true
	}
}

func TestAddYCSBValidation(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackVanilla)
	defer func() {
		if recover() == nil {
			t.Fatal("zero clients must panic")
		}
	}()
	sim.AddYCSB(YCSBA, 0, 0)
}

func TestBreakdownComponents(t *testing.T) {
	sim := NewSimulation(ServerMachine(4), StackDaredevil)
	sim.EnableBreakdown()
	sim.AddLTenants(4)
	sim.AddTTenants(8)
	res := sim.Run(20*Millisecond, 80*Millisecond)
	if res.LCompletionDelay.Count == 0 {
		t.Fatal("breakdown must record completion delays")
	}
	if res.LCompletionDelay.Mean <= 0 {
		t.Fatal("completion delay must be positive")
	}
	if res.LCrossCoreFraction < 0 || res.LCrossCoreFraction > 1 {
		t.Fatalf("cross-core fraction %v out of range", res.LCrossCoreFraction)
	}
}

func TestNoBreakdownByDefault(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackVanilla)
	sim.AddLTenants(1)
	res := sim.Run(5*Millisecond, 20*Millisecond)
	if res.LCompletionDelay.Count != 0 {
		t.Fatal("breakdown stats must be absent unless enabled")
	}
}

func TestTraceCapture(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackDaredevil)
	sim.EnableTrace(10)
	sim.AddLTenants(2)
	sim.Run(5*Millisecond, 30*Millisecond)
	var buf bytes.Buffer
	sim.WriteTrace(&buf)
	out := buf.String()
	if !strings.Contains(out, "queue_wait") || !strings.Contains(out, "fio-L") {
		t.Fatalf("trace table incomplete:\n%s", out)
	}
}

func TestWriteTraceNoOpWithoutEnable(t *testing.T) {
	sim := NewSimulation(ServerMachine(2), StackVanilla)
	sim.AddLTenants(1)
	sim.Run(Millisecond, 5*Millisecond)
	var buf bytes.Buffer
	sim.WriteTrace(&buf)
	if buf.Len() != 0 {
		t.Fatal("WriteTrace must be a no-op unless enabled")
	}
}

func TestRunExperimentDispatchesAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tiny := Scale{Warmup: 10 * Millisecond, Measure: 30 * Millisecond}
	for _, name := range ExperimentNames() {
		var buf bytes.Buffer
		if err := RunExperiment(&buf, name, tiny); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", name)
		}
	}
}

func TestRunExperimentJSON(t *testing.T) {
	data, err := RunExperimentJSON("table1", QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["Rows"]; !ok {
		t.Fatal("JSON missing Rows")
	}
	if _, err := RunExperimentJSON("nope", QuickScale); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
