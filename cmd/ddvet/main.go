// Command ddvet runs the repository's determinism and hot-path lint suite
// (see internal/analysis): simdeterminism, cellisolation, hotpathalloc,
// unitcheck, slabsafety, and obscost.
//
//	go run ./cmd/ddvet ./...
//	ddvet -config .ddvet.json ./internal/nvme
//
// -list prints each analyzer's rules. -timings prints per-analyzer wall
// time. -nocache is accepted and does nothing: ddvet keeps no result
// cache.
//
// Exit status: 0 clean, 1 diagnostics found, 3 tool failure.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daredevil/internal/analysis/cellisolation"
	"daredevil/internal/analysis/config"
	"daredevil/internal/analysis/framework"
	"daredevil/internal/analysis/hotpathalloc"
	"daredevil/internal/analysis/load"
	"daredevil/internal/analysis/obscost"
	"daredevil/internal/analysis/simdeterminism"
	"daredevil/internal/analysis/slabsafety"
	"daredevil/internal/analysis/unitcheck"
	"daredevil/internal/walltime"
)

// ConfigFile is the optional override at the module root.
const ConfigFile = ".ddvet.json"

// analyzers builds the full suite under cfg.
func analyzers(cfg *config.Config) []*framework.Analyzer {
	return []*framework.Analyzer{
		simdeterminism.New(cfg),
		cellisolation.New(cfg),
		hotpathalloc.New(cfg),
		unitcheck.New(cfg),
		slabsafety.New(cfg),
		obscost.New(cfg),
	}
}

// timed wraps every analyzer's Run so a -timings run can report where the
// wall time went. Aggregation is by suite index; walltime keeps the
// simdeterminism analyzer's own time.Now ban out of this package.
func timed(suite []*framework.Analyzer) (wrapped []*framework.Analyzer, elapsed []*time.Duration) {
	elapsed = make([]*time.Duration, len(suite))
	for i, a := range suite {
		d := new(time.Duration)
		elapsed[i] = d
		run := a.Run
		a.Run = func(pass *framework.Pass) {
			sw := walltime.Start()
			run(pass)
			*d += sw.Elapsed()
		}
	}
	return suite, elapsed
}

func main() { os.Exit(vet()) }

// loadConfig reads .ddvet.json at the module root above dir, if present.
func loadConfig(dir, explicit string) (*config.Config, error) {
	if explicit != "" {
		return config.Load(explicit)
	}
	root, err := load.ModuleRoot(dir)
	if err != nil {
		return config.Default(), nil
	}
	path := filepath.Join(root, ConfigFile)
	if _, err := os.Stat(path); err != nil {
		return config.Default(), nil
	}
	return config.Load(path)
}

// vet parses the command line, loads the packages via go list, and prints
// their diagnostics; it returns the exit status.
func vet() int {
	fs := flag.NewFlagSet("ddvet", flag.ExitOnError)
	configPath := fs.String("config", "", "path to a ddvet config (default: .ddvet.json at the module root)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Bool("nocache", false, "no effect: kept for scripts that pass it (ddvet keeps no result cache)")
	timings := fs.Bool("timings", false, "print per-analyzer wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ddvet [-config file] [-timings] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 3
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 3
	}
	cfg, err := loadConfig(cwd, *configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 3
	}
	suite := analyzers(cfg)
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var elapsed []*time.Duration
	if *timings {
		suite, elapsed = timed(suite)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	found, code := run(cwd, cfg, suite, patterns)
	if code != 0 {
		return code
	}
	if *timings {
		for i, a := range suite {
			fmt.Fprintf(os.Stderr, "ddvet: timing %-16s %s\n", a.Name, elapsed[i].Round(time.Microsecond))
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "ddvet: %d problem(s)\n", found)
		return 1
	}
	return 0
}

// run lints the matched packages, loaded in one batch, and prints their
// diagnostics in a deterministic order: package order from go list,
// position order within a package from the framework.
func run(cwd string, cfg *config.Config, suite []*framework.Analyzer, patterns []string) (found, code int) {
	pkgs, err := load.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 0, 3
	}
	for _, pkg := range pkgs {
		for _, d := range framework.Run(pkg, cfg, suite) {
			fmt.Printf("%s: %s: %s\n", relPos(cwd, pkg.Fset.Position(d.Pos)), d.Analyzer, d.Message)
			found++
		}
	}
	return found, 0
}

// relPos renders a position relative to dir for stable, clickable output.
func relPos(dir string, pos token.Position) string {
	if rel, err := filepath.Rel(dir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = rel
	}
	return pos.String()
}
