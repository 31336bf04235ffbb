// Package load type-checks Go packages for analysis without depending on
// golang.org/x/tools/go/packages: it shells out to `go list -json -deps
// -export`, parses the target packages from source, and resolves every
// import — stdlib and in-module alike — through the compiler's export data
// recorded in the build cache. This works fully offline; the only
// requirement is that the code builds, which the lint wants anyway.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"daredevil/internal/analysis/framework"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir and decodes the JSON package stream.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod found above " + dir)
		}
		dir = parent
	}
}

// Load parses and type-checks the packages matching patterns (run from
// dir), returning them in `go list` order. Test files are not loaded: the
// determinism rules deliberately do not apply to tests, which may use the
// wall clock and goroutines freely.
func Load(dir string, patterns []string) ([]*framework.Package, error) {
	targets, err := goList(dir, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	wanted := map[string]bool{}
	order := []string{}
	for _, p := range targets {
		if !wanted[p.ImportPath] {
			wanted[p.ImportPath] = true
			order = append(order, p.ImportPath)
		}
	}

	deps, err := goList(dir, append([]string{"-json", "-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	byPath := map[string]listPackage{}
	for _, p := range deps {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		byPath[p.ImportPath] = p
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e := exports[path]
		if e == "" {
			return nil, fmt.Errorf("no export data for %q (is the package built?)", path)
		}
		return os.Open(e)
	})

	var out []*framework.Package
	for _, path := range order {
		p, ok := byPath[path]
		if !ok || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses p's files and type-checks them against imp.
func check(fset *token.FileSet, imp types.Importer, p listPackage) (*framework.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return Check(fset, imp, p.ImportPath, files)
}

// Check type-checks already-parsed files as the package at importPath.
func Check(fset *token.FileSet, imp types.Importer, importPath string, files []*ast.File) (*framework.Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &framework.Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// ExportImporter returns an importer that resolves any import by asking
// `go list -export` from dir on demand, caching results. The analysistest
// harness uses it to type-check fixture files that import the stdlib or
// in-module packages.
func ExportImporter(dir string, fset *token.FileSet) types.Importer {
	exports := map[string]string{}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if e, ok := exports[path]; ok {
			return os.Open(e)
		}
		pkgs, err := goList(dir, "-json", "-deps", "-export", path)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
}
