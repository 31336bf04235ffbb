// Command ddvet runs the repository's determinism and hot-path lint suite
// (see internal/analysis): simdeterminism, cellisolation, hotpathalloc,
// unitcheck, slabsafety, obscost, and argsafety.
//
// Standalone (the form make lint and CI use):
//
//	go run ./cmd/ddvet ./...
//	ddvet -config .ddvet.json ./internal/nvme
//
// -timings prints per-analyzer wall time. -nocache is accepted and does
// nothing: standalone runs keep no result cache.
//
// As a go vet tool, speaking the unitchecker .cfg protocol so the go
// command handles package loading and caching:
//
//	go build -o bin/ddvet ./cmd/ddvet
//	go vet -vettool=$(pwd)/bin/ddvet ./...
//
// Exit status: 0 clean, 1 diagnostics found (2 in vettool mode, matching
// unitchecker), 3 tool failure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daredevil/internal/analysis/argsafety"
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
		argsafety.New(cfg),
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

func main() {
	// The go command probes vet tools with -V=full (for its build cache
	// key) and -flags (to learn pass-through flags) before handing each
	// package over as a JSON .cfg file.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// The go command caches vet results keyed by this line; a
			// "devel" version must carry a content hash of the tool.
			fmt.Printf("%s version devel buildID=%x\n", filepath.Base(os.Args[0]), selfHash())
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vettool(os.Args[1]))
	}
	os.Exit(standalone())
}

// selfHash hashes the running executable for the -V=full build ID.
func selfHash() []byte {
	exe, err := os.Executable()
	if err != nil {
		return []byte("unknown")
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return []byte("unknown")
	}
	sum := sha256.Sum256(data)
	return sum[:]
}

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

// standalone loads packages itself via go list and prints diagnostics.
func standalone() int {
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

// vetConfig is the JSON the go command writes for unitchecker-protocol
// tools: the package's files plus the import map and export data of every
// dependency, so no further package loading is needed.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// vettool analyzes one package described by cfgFile.
func vettool(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 3
	}
	var vc vetConfig
	if err := json.Unmarshal(data, &vc); err != nil {
		fmt.Fprintf(os.Stderr, "ddvet: parse %s: %v\n", cfgFile, err)
		return 3
	}
	// The go command requires the facts file to exist even though ddvet's
	// analyzers exchange no facts.
	if vc.VetxOutput != "" {
		if err := os.WriteFile(vc.VetxOutput, []byte("ddvet"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "ddvet:", err)
			return 3
		}
	}
	if vc.VetxOnly {
		return 0
	}
	// Test packages get .cfg files too; the determinism contract
	// deliberately exempts tests.
	if strings.HasSuffix(vc.ImportPath, ".test") || strings.HasSuffix(vc.ImportPath, "_test") ||
		strings.Contains(vc.ImportPath, " [") {
		return 0
	}

	cfg, err := loadConfig(vc.Dir, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 3
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range vc.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddvet:", err)
			return 3
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := vc.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := vc.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := load.Check(fset, imp, vc.ImportPath, files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddvet:", err)
		return 3
	}

	diags := framework.Run(pkg, cfg, analyzers(cfg))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
