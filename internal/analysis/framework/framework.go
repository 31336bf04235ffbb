// Package framework is a deliberately small, dependency-free stand-in for
// golang.org/x/tools/go/analysis: an Analyzer runs over one type-checked
// package and reports position-tagged diagnostics. The x/tools module is
// not vendored in this repository (the build is fully offline), so the
// ddvet suite carries the ~200 lines of driver scaffolding it actually
// needs instead of gating the whole lint on an unavailable dependency. The
// API mirrors x/tools closely enough that porting the analyzers onto the
// real framework is a mechanical change.
//
// The framework also owns the suppression mechanism: a comment of the form
//
//	//lint:ddvet:allow <analyzer> <reason>
//
// on the flagged line (or the line directly above it) silences that
// analyzer's diagnostics for that line. The reason is mandatory — a bare
// suppression is itself reported — and a directive that suppresses nothing
// is reported as stale, so annotations cannot outlive the code they excuse.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant it guards.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    interface {
		Exempted(path, analyzer string) bool
	}

	// Shared is a per-package scratch store living for one Run call: every
	// analyzer in the suite sees the same store, so expensive package-wide
	// structures (the flow call graph and its function summaries) are built
	// once and consumed by all of them instead of re-walked per analyzer.
	Shared *Store

	diags *[]Diagnostic
}

// Store is the shared per-package memo. Keys are arbitrary comparable
// values; by convention each producing package uses an unexported key type
// so analyzers cannot collide.
type Store struct {
	m map[any]any
}

// NewStore returns an empty shared store.
func NewStore() *Store { return &Store{m: map[any]any{}} }

// Get returns the value stored under key, or nil.
func (s *Store) Get(key any) any {
	if s == nil {
		return nil
	}
	return s.m[key]
}

// Put stores value under key.
func (s *Store) Put(key, value any) {
	if s == nil {
		return
	}
	s.m[key] = value
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file in the pass in source order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Package is the unit of analysis: a parsed, type-checked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// AllowDirective is the suppression comment prefix.
const AllowDirective = "//lint:ddvet:allow"

// directive is one parsed allow comment.
type directive struct {
	pos      token.Pos
	line     int
	file     string
	analyzer string
	reason   string
	used     bool
}

// Run executes the analyzers over pkg, applies suppression directives, and
// returns the surviving diagnostics sorted by position. Directive hygiene
// problems (missing reason, unknown analyzer, stale directive) are reported
// under the pseudo-analyzer name "ddvet".
func Run(pkg *Package, cfg interface {
	Exempted(path, analyzer string) bool
}, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	shared := NewStore()
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Config:    cfg,
			Shared:    shared,
			diags:     &raw,
		}
		a.Run(pass)
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives, hygiene := parseDirectives(pkg, known)

	// Index directives by (file, line) for the two attachment points: the
	// flagged line itself, or the line directly above it.
	byLine := map[string][]*directive{}
	for i := range directives {
		d := &directives[i]
		byLine[fmt.Sprintf("%s:%d", d.file, d.line)] = append(byLine[fmt.Sprintf("%s:%d", d.file, d.line)], d)
	}

	var out []Diagnostic
	for _, diag := range raw {
		pos := pkg.Fset.Position(diag.Pos)
		suppressed := false
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, d := range byLine[fmt.Sprintf("%s:%d", pos.Filename, line)] {
				if d.analyzer == diag.Analyzer {
					d.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}

	out = append(out, hygiene...)
	for i := range directives {
		d := &directives[i]
		if !d.used && known[d.analyzer] {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "ddvet",
				Message:  fmt.Sprintf("stale suppression: no %s diagnostic on this or the next line", d.analyzer),
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// parseDirectives extracts allow directives from pkg's comments. Malformed
// directives become hygiene diagnostics.
func parseDirectives(pkg *Package, known map[string]bool) ([]directive, []Diagnostic) {
	var ds []directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowDirective)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "ddvet",
						Message:  "malformed suppression: want \"//lint:ddvet:allow <analyzer> <reason>\" (the reason is mandatory)",
					})
					continue
				}
				name := fields[0]
				if !known[name] && name != "ddvet" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "ddvet",
						Message:  fmt.Sprintf("suppression names unknown analyzer %q", name),
					})
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				ds = append(ds, directive{
					pos:      c.Pos(),
					line:     p.Line,
					file:     p.Filename,
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return ds, bad
}

// QualifiedName returns "pkg/path.Name" for a named type, or "" for
// anything else (builtins, unnamed types, type parameters).
func QualifiedName(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
