package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"daredevil/internal/analysis/config"
	"daredevil/internal/analysis/load"
)

// buildDDVet compiles the ddvet binary once into a test temp dir.
func buildDDVet(t *testing.T) string {
	t.Helper()
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "ddvet")
	cmd := exec.Command("go", "build", "-o", bin, "daredevil/cmd/ddvet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ddvet: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneEndToEnd builds a throwaway module with one sim-ordered
// package: a wall-clock call must fail the run with a diagnostic, and the
// fixed version must pass (with the no-op -nocache flag still accepted).
func TestStandaloneEndToEnd(t *testing.T) {
	bin := buildDDVet(t)
	dir := t.TempDir()

	write := func(rel, body string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tmpmod\n\ngo 1.22\n")
	write(".ddvet.json", `{"simPackages": ["example.com/tmpmod/cell"]}`+"\n")
	write("cell/cell.go", `package cell

import "time"

func Now() int64 { return time.Now().Unix() }
`)

	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, append(args, "./...")...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("run ddvet: %v\n%s", err, out)
		}
		return string(out), code
	}

	out, code := run()
	if code != 1 {
		t.Fatalf("ddvet on wall-clock cell: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "sim-ordered package imports \"time\"") ||
		!strings.Contains(out, "time.Now reads the host wall clock") {
		t.Errorf("missing expected diagnostics:\n%s", out)
	}

	write("cell/cell.go", `package cell

func Now() int64 { return 0 }
`)
	// -nocache is a documented no-op that scripts still pass.
	if out, code := run("-nocache"); code != 0 {
		t.Errorf("ddvet on clean cell: exit %d, want 0\n%s", code, out)
	}
}

// TestRunNoCacheComputes pins that run analyzes the package afresh and a
// clean package stays clean.
func TestRunNoCacheComputes(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	found, code := run(cwd, cfg, analyzers(cfg), []string{"daredevil/internal/walltime"})
	if code != 0 || found != 0 {
		t.Fatalf("found=%d code=%d, want 0 0", found, code)
	}
}

// TestRepoConfigOnlyOverrides keeps config.Default() the one source of the
// repository's settings: a field .ddvet.json names must differ from its
// default, so analyzer tests and make lint run under the same lists.
func TestRepoConfigOnlyOverrides(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, ConfigFile))
	if err != nil {
		t.Fatal(err)
	}
	def, err := json.Marshal(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	var file, defaults map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(def, &defaults); err != nil {
		t.Fatal(err)
	}
	for name, v := range file {
		if reflect.DeepEqual(unordered(v), unordered(defaults[name])) {
			t.Errorf("%s restates config.Default()'s %q; delete it from the file", ConfigFile, name)
		}
	}
}

// unordered canonicalizes a JSON list as its sorted encoded elements: list
// order carries no meaning in the config.
func unordered(v any) any {
	list, ok := v.([]any)
	if !ok {
		return v
	}
	out := make([]string, len(list))
	for i, e := range list {
		b, _ := json.Marshal(e)
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}
