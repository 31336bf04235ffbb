package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned ddsim outputs in testdata/")

// goldenWindows shortens the documented invocations to test-sized runs.
var goldenWindows = []string{"-warmup", "20ms", "-measure", "100ms"}

// goldenCases are the ddsim invocations README.md and EXPERIMENTS.md show
// (at test-sized windows) plus every shipped scenario through -config.
// "$DIR" stands for a fresh temporary directory holding a copy of every
// examples/scenarios file; files a run writes there are pinned by hash.
var goldenCases = []struct {
	name string
	args []string
}{
	{"daredevil", []string{"-stack", "daredevil", "-l", "4", "-t", "16"}},
	{"vanilla-ns4", []string{"-stack", "vanilla", "-l", "4", "-t", "16", "-namespaces", "4"}},
	{"trace", []string{"-l", "1", "-t", "2", "-trace", "$DIR/out.json"}},
	{"ftl-prof", []string{"-l", "2", "-t", "4", "-ftl", "-prof", "$DIR/prof.json"}},
	{"breakdown", []string{"-stack", "daredevil", "-l", "4", "-t", "16", "-breakdown"}},
	{"aged", []string{"-stack", "vanilla", "-l", "4", "-t", "4", "-ftl", "-op", "15", "-trim", "8"}},
	{"fault", []string{"-stack", "daredevil", "-l", "4", "-t", "2", "-fault", "brownout"}},
	{"compare", []string{"-compare", "-j", "2", "-l", "4", "-t", "16"}},
	{"fault-trace", []string{"-l", "4", "-t", "8", "-fault", "brownout", "-trace", "$DIR/out.json"}},
	{"obs-window", []string{"-l", "4", "-t", "8", "-obs-window-us", "5000"}},
	{"config-aged", []string{"-config", "$DIR/aged.json"}},
	{"config-faulty", []string{"-config", "$DIR/faulty.json"}},
	{"config-mixed", []string{"-config", "$DIR/mixed.json"}},
	{"config-multins", []string{"-config", "$DIR/multins.json"}},
	{"config-multins-breakdown", []string{"-config", "$DIR/multins.json", "-breakdown"}},
	{"config-profiled", []string{"-config", "$DIR/profiled.json"}},
	{"config-traced", []string{"-config", "$DIR/traced.json"}},
}

// TestGolden pins each invocation's stdout and the hashes of the files it
// writes. Regenerate after an intended change with
//
//	go test ./cmd/ddsim -run TestGolden -update-golden
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if !strings.HasPrefix(tc.name, "config-") {
				args = append(append([]string(nil), args...), goldenWindows...)
			}
			got := runPinned(t, args)
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ddsim %s output drifted from %s:\n--- got\n%s\n--- want\n%s",
					strings.Join(tc.args, " "), path, got, want)
			}
		})
	}
}

// runPinned runs ddsim in a scratch directory seeded with the shipped
// scenarios and returns its normalized report: stdout with the directory
// spelled "$DIR" and the host wall-clock self-profile masked, followed by
// the size and SHA-256 of every file the run wrote.
func runPinned(t *testing.T, args []string) []byte {
	t.Helper()
	dir := t.TempDir()
	scenarios, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	inputs := map[string]bool{}
	for _, src := range scenarios {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		inputs[filepath.Base(src)] = true
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	expanded := make([]string, len(args))
	for i, a := range args {
		expanded[i] = strings.ReplaceAll(a, "$DIR", dir)
	}
	var out bytes.Buffer
	if err := run(expanded, &out); err != nil {
		t.Fatalf("ddsim %s: %v", strings.Join(args, " "), err)
	}
	var b strings.Builder
	b.WriteString(maskSelfProfile(strings.ReplaceAll(out.String(), dir, "$DIR")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var written []string
	for _, e := range entries {
		if !inputs[e.Name()] {
			written = append(written, e.Name())
		}
	}
	sort.Strings(written)
	for _, name := range written {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "--- wrote %s: %d bytes, sha256 %x\n", name, len(data), sha256.Sum256(data))
	}
	return []byte(b.String())
}

// maskSelfProfile replaces the wall-clock self-profile table (header
// "component  wall  share" through its "total" row), the one
// host-dependent block in ddsim's output.
func maskSelfProfile(s string) string {
	lines := strings.SplitAfter(s, "\n")
	var b strings.Builder
	for i := 0; i < len(lines); i++ {
		if f := strings.Fields(lines[i]); len(f) == 3 && f[0] == "component" && f[1] == "wall" {
			for i < len(lines) && !strings.HasPrefix(lines[i], "total ") {
				i++
			}
			b.WriteString("[self-profile: host wall-clock, masked]\n")
			continue
		}
		b.WriteString(lines[i])
	}
	return b.String()
}
