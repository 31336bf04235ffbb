package daredevil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const goodScenario = `{
  "machine": "svm", "cores": 4, "stack": "daredevil",
  "warmupMs": 20, "measureMs": 60,
  "jobs": [
    {"name": "db",     "class": "L", "count": 2},
    {"name": "backup", "class": "T", "count": 4, "outlierEvery": 8}
  ]
}`

func TestParseScenarioGood(t *testing.T) {
	sc, err := ParseScenario([]byte(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Jobs) != 2 || sc.Jobs[1].OutlierEvery != 8 {
		t.Fatalf("parsed %+v", sc)
	}
}

func TestScenarioBuildAndRun(t *testing.T) {
	sc, err := ParseScenario([]byte(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if warm != 20*Millisecond || measure != 60*Millisecond {
		t.Fatalf("windows %v/%v", warm, measure)
	}
	res := sim.Run(warm, measure)
	if res.LTenantLatency.Count == 0 || res.TTenantLatency.Count == 0 {
		t.Fatal("scenario produced no completions")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"jobs":[{"name":"x","class":"L","count":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sim.StackName() != "dare-full" {
		t.Fatalf("default stack = %q", sim.StackName())
	}
	if warm != 100*Millisecond || measure != 400*Millisecond {
		t.Fatalf("default windows %v/%v", warm, measure)
	}
}

func TestScenarioOpenLoopAndOverrides(t *testing.T) {
	src := `{
	  "stack": "vanilla", "measureMs": 50, "warmupMs": 10,
	  "jobs": [
	    {"name": "web", "class": "L", "count": 1, "arrivalUs": 100, "bs": 8192,
	     "pattern": "sequential", "readPct": 50, "spanMB": 16, "core": 2}
	  ]
	}`
	sc, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(warm, measure)
	if res.LTenantLatency.Count == 0 {
		t.Fatal("open-loop scenario produced nothing")
	}
}

func TestScenarioNamespaces(t *testing.T) {
	src := `{
	  "namespaces": 2,
	  "jobs": [
	    {"name": "a", "class": "L", "count": 1, "namespace": 0},
	    {"name": "b", "class": "T", "count": 2, "namespace": 1}
	  ],
	  "warmupMs": 10, "measureMs": 40
	}`
	sc, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(warm, measure)
	if res.TTenantLatency.Count == 0 {
		t.Fatal("namespace scenario produced nothing")
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":                 `{`,
		"no jobs":                  `{"jobs":[]}`,
		"bad class":                `{"jobs":[{"name":"x","class":"Z","count":1}]}`,
		"zero count":               `{"jobs":[{"name":"x","class":"L","count":0}]}`,
		"bad machine":              `{"machine":"pdp11","jobs":[{"name":"x","class":"L","count":1}]}`,
		"bad stack":                `{"stack":"btrfs","jobs":[{"name":"x","class":"L","count":1}]}`,
		"bad pattern":              `{"jobs":[{"name":"x","class":"L","count":1,"pattern":"zigzag"}]}`,
		"bad namespace":            `{"namespaces":2,"jobs":[{"name":"x","class":"L","count":1,"namespace":5}]}`,
		"negative param":           `{"jobs":[{"name":"x","class":"L","count":1,"bs":-1}]}`,
		"negative core":            `{"jobs":[{"name":"db","class":"L","count":1,"core":-1}]}`,
		"negative ms":              `{"measureMs":-5,"jobs":[{"name":"x","class":"L","count":1}]}`,
		"traceLimit without trace": `{"traceLimit":100,"jobs":[{"name":"x","class":"L","count":1}]}`,
		"negative traceLimit":      `{"trace":true,"traceLimit":-1,"jobs":[{"name":"x","class":"L","count":1}]}`,
		"negative obsWindowUs":     `{"obsWindowUs":-5,"jobs":[{"name":"x","class":"L","count":1}]}`,
	}
	for name, src := range cases {
		if _, err := ParseScenario([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := ParseScenario([]byte(`{"jobs":[{"name":"db","class":"L","count":1,"core":0}]}`)); err != nil {
		t.Errorf("explicit core 0 rejected: %v", err)
	}
}

// TestScenarioObservabilityFields checks that trace/traceLimit/obsWindowUs
// arm the simulation straight from JSON: after a run, the trace JSON and
// metrics CSV exports carry data.
func TestScenarioObservabilityFields(t *testing.T) {
	src := `{
	  "warmupMs": 5, "measureMs": 20,
	  "trace": true, "traceLimit": 50, "obsWindowUs": 2000,
	  "jobs": [{"name": "db", "class": "L", "count": 2}]
	}`
	sc, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(warm, measure)
	var trace, csv bytes.Buffer
	if err := sim.WriteTraceJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Fatal("scenario trace is not valid JSON")
	}
	if !strings.Contains(trace.String(), `"name":"read"`) && !strings.Contains(trace.String(), `"name":"write"`) {
		t.Fatal("scenario trace has no device slices")
	}
	if err := sim.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines < 3 {
		t.Fatalf("metrics CSV too short (%d lines):\n%s", lines, csv.String())
	}
}

func TestScenarioErrorsMentionJob(t *testing.T) {
	_, err := ParseScenario([]byte(`{"jobs":[{"name":"payroll","class":"L","count":-1}]}`))
	if err == nil || !strings.Contains(err.Error(), "payroll") {
		t.Fatalf("error should name the offending job: %v", err)
	}
}

// TestScenarioProfileConservedUnderFaults profiles a brownout cell whose
// host recovery requeues and cancels commands, so many spans end with stale
// stamps. For every group the layers' summed time must equal the summed
// total latency exactly: attribution neither invents nor drops time.
func TestScenarioProfileConservedUnderFaults(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"machine":"svm","cores":4,"stack":"daredevil","warmupMs":50,"measureMs":200,
		"fault":"brownout","faultSeed":42,"cmdTimeoutUs":5000,"ftl":true,
		"jobs":[{"name":"db","class":"L","count":4},{"name":"backup","class":"T","count":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sim, warm, measure, err := BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sim.EnableProfile()
	sim.Run(warm, measure)
	groups := sim.Profile().Groups
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (L and T)", len(groups))
	}
	for _, g := range groups {
		var layerSum int64
		for _, l := range g.Layers {
			layerSum += l.Sum
		}
		if g.Total.Sum == 0 || layerSum != g.Total.Sum {
			t.Errorf("%s/%s: layer sums add up to %dns, total is %dns", g.Stack, g.Class, layerSum, g.Total.Sum)
		}
	}
}
