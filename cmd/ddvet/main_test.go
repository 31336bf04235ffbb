package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestVersionProtocol checks the -V=full line the go command keys its vet
// cache on: name, "version devel", and a hex build ID.
func TestVersionProtocol(t *testing.T) {
	bin := buildDDVet(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("ddvet -V=full: %v", err)
	}
	if !regexp.MustCompile(`^ddvet version devel buildID=[0-9a-f]{64}\n$`).Match(out) {
		t.Errorf("-V=full output %q does not match the vettool protocol", out)
	}
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
