package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specPath is BENCHMARK.json, read from the repository root the benchmark
// runs in. It is the one registry of workload names, metric names, units
// and regression bounds: a run emits exactly the metrics it lists, and
// compare applies its bounds.
const specPath = "BENCHMARK.json"

type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricsFor picks the metrics a run prints out of what it measured: the
// end-to-end list untraced, the per-layer list traced. An end-to-end
// metric the run did not measure is a bug in the benchmark. A per-layer
// metric reads 0 when the workload never exercises that layer in-process
// (the README's layer table says which workloads reach which layer). A
// measured metric on neither list is also a bug.
func (s *benchSpec) metricsFor(traced bool, got map[string]float64) (map[string]metricValue, error) {
	defs := s.EndToEnd
	if traced {
		defs = s.PerLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	listed := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		listed[d.Name] = true
	}
	var extra []string
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from %s: %v", specPath, extra)
	}
	return out, nil
}

// writeResult prints every metric by name with its unit, then the result
// object as the final line.
func writeResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
