// Package flow is the interprocedural layer under the ddvet analyzers: a
// per-package call graph over go/ast + go/types with compact function
// summaries, built once per package and shared by every analyzer through
// the framework's per-package store.
//
// PR 7 made the simulator's hot path deliberately dangerous — slab slots
// freed without zeroing, a non-pointer live-flag double-free guard,
// pointer-in-any continuations — and the analyzers that police those
// contracts (slabsafety, obscost, hotpathalloc) all need the same three
// facts about a function the AST alone does not give:
//
//   - which of its parameters escape into a free/recycle sink (an append
//     onto a free-list field, directly or through a callee), so a caller's
//     use of the value after the call is a use-after-free;
//   - which of its parameters are boxed into an interface, so a caller
//     knows the value's shape matters for allocation;
//   - whether its body allocates at all (composite literals, make/new,
//     capturing closures, boxing, append, allocating stdlib calls),
//     transitively through intra-package callees.
//
// Summaries are propagated to a fixpoint over the static intra-package
// call graph, and the //ddvet:hotpath root set is closed over the same
// graph — the transitive walk hotpathalloc used to do privately now lives
// here, once.
//
// The engine is per-package by design: cross-package effects (a sink in
// another package, an allocating dependency) are not summarized, which is
// a documented false-negative class, not an accident. Summaries stay small
// and the analysis stays fast enough to run on every make lint.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"daredevil/internal/analysis/framework"
)

// HotDirective marks a function as a hot-path root; the closure of static
// intra-package calls from all roots is the hot set.
const HotDirective = "//ddvet:hotpath"

// Summary is one function's compact interprocedural footprint.
type Summary struct {
	// FreesParams[i] reports that parameter i flows into a free/recycle
	// sink — an append onto a free-list-named slice, in this function or a
	// (transitive) intra-package callee it is forwarded to. The value is
	// recycled after such a call: any later field access in the caller is a
	// use-after-free candidate.
	FreesParams []bool
	// BoxesParams[i] reports that parameter i is stored into an
	// interface-typed location (an any field, an interface argument),
	// directly or through a callee.
	BoxesParams []bool
	// Allocates reports that the body (or a transitive intra-package
	// callee) contains an allocation shape: composite literal, make/new,
	// capturing closure, interface boxing of a non-pointer value, append,
	// string concatenation/conversion, or a call into allocating stdlib.
	Allocates bool
	// DirectFree reports that the body itself contains a free-list append
	// (the sink), as opposed to merely forwarding a value toward one.
	DirectFree bool
}

// Graph is the per-package call graph plus summaries and the hot set.
type Graph struct {
	// Funcs lists every declared function with a body, in source order —
	// the deterministic iteration order analyzers must use.
	Funcs []types.Object

	info    *types.Info
	pkg     *types.Package
	decls   map[types.Object]*ast.FuncDecl
	callees map[types.Object][]types.Object
	sums    map[types.Object]*Summary
	hot     map[types.Object]bool
	roots   []types.Object
}

// storeKey keys the graph in the framework's shared per-package store.
type storeKey struct{}

// Of returns the package's flow graph, building it on first use and
// memoizing it in the pass's shared store so the whole analyzer suite pays
// for one construction per package.
func Of(pass *framework.Pass) *Graph {
	if g, ok := pass.Shared.Get(storeKey{}).(*Graph); ok {
		return g
	}
	g := build(pass.Files, pass.Pkg, pass.TypesInfo)
	pass.Shared.Put(storeKey{}, g)
	return g
}

// Build constructs a graph outside a framework pass (unit tests, tools).
func Build(files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	return build(files, pkg, info)
}

// Decl returns the declaration of a package function, or nil.
func (g *Graph) Decl(obj types.Object) *ast.FuncDecl { return g.decls[obj] }

// DeclByName returns the declaration of the first function named name in
// source order, or nil (test and tooling convenience).
func (g *Graph) DeclByName(name string) *ast.FuncDecl {
	for _, o := range g.Funcs {
		if o.Name() == name {
			return g.decls[o]
		}
	}
	return nil
}

// Callees returns the static intra-package callees of obj, in first-call
// source order.
func (g *Graph) Callees(obj types.Object) []types.Object { return g.callees[obj] }

// Summary returns obj's summary, or nil for functions not declared (with a
// body) in this package.
func (g *Graph) Summary(obj types.Object) *Summary { return g.sums[obj] }

// Hot reports whether obj is reachable from a //ddvet:hotpath root.
func (g *Graph) Hot(obj types.Object) bool { return g.hot[obj] }

// Roots returns the declared //ddvet:hotpath roots in source order.
func (g *Graph) Roots() []types.Object { return g.roots }

// HasRoots reports whether the package declares any hot-path roots.
func (g *Graph) HasRoots() bool { return len(g.roots) > 0 }

// FreedArgs returns the indices of call arguments that flow into a free
// sink in the (intra-package) callee, using the fixpointed summaries. The
// indices are positions in call.Args. Dynamic calls, builtins, and
// cross-package callees return nil.
func (g *Graph) FreedArgs(call *ast.CallExpr) []int {
	callee := StaticCallee(g.info, call)
	if callee == nil {
		return nil
	}
	sum := g.sums[callee]
	if sum == nil {
		return nil
	}
	var out []int
	for i, freed := range sum.FreesParams {
		if freed && i < len(call.Args) {
			out = append(out, i)
		}
	}
	return out
}

// AllocatingCall reports whether call resolves to an intra-package callee
// whose summary allocates. Cross-package allocating calls are handled by
// the analyzers' stdlib tables; unknown callees report false.
func (g *Graph) AllocatingCall(call *ast.CallExpr) bool {
	callee := StaticCallee(g.info, call)
	if callee == nil {
		return false
	}
	sum := g.sums[callee]
	return sum != nil && sum.Allocates
}

// IsFreeListName reports whether a slice name follows the repository's
// free-list naming convention (freeCmds, freeReqs, free, timerFree, ...).
// The convention is load-bearing: slabsafety's sink model keys on it.
func IsFreeListName(name string) bool {
	return strings.HasPrefix(name, "free") || strings.HasSuffix(name, "Free")
}

// StaticCallee resolves call to a function or method object, or nil for
// dynamic calls, builtins, and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if o, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}

// PointerShaped reports whether a value of type t fits an interface word
// without allocating when boxed (pointers, channels, maps, funcs, unsafe
// pointers). Interfaces themselves report true: re-boxing an interface
// copies the word pair.
func PointerShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.IsInterface(t) {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// CapturedVars lists the names of variables a function literal closes over
// (variables declared in an enclosing function). Package-level variables
// are direct references, not captures.
func CapturedVars(info *types.Info, pkg *types.Package, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Pos() == 0 {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if !seen[v.Name()] {
				seen[v.Name()] = true
				names = append(names, v.Name())
			}
		}
		return true
	})
	return names
}

// allocatingStdlib names imported functions treated as allocating on any
// call: the formatting and joining entry points that sneak allocations
// onto hot paths. Keyed by "import/path.Func".
var allocatingStdlib = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Printf": true, "fmt.Println": true, "fmt.Appendf": true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strconv.Quote": true, "strconv.FormatFloat": true,
	"errors.New": true, "sort.Slice": true, "sort.SliceStable": true,
}

// AllocatingStdlibCall reports whether call is a direct call to one of the
// known allocating stdlib entry points.
func AllocatingStdlibCall(info *types.Info, call *ast.CallExpr) bool {
	callee := StaticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	return allocatingStdlib[callee.Pkg().Path()+"."+callee.Name()]
}

// build constructs the graph: decl index, call edges, hot closure, local
// summaries, then fixpoint propagation.
func build(files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	g := &Graph{
		info:    info,
		pkg:     pkg,
		decls:   map[types.Object]*ast.FuncDecl{},
		callees: map[types.Object][]types.Object{},
		sums:    map[types.Object]*Summary{},
		hot:     map[types.Object]bool{},
	}

	// Index declarations in source order.
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			g.decls[obj] = fd
			g.Funcs = append(g.Funcs, obj)
			if isHotRoot(fd) {
				g.roots = append(g.roots, obj)
			}
		}
	}

	// Call edges (static intra-package calls, first-appearance order).
	for _, obj := range g.Funcs {
		fd := g.decls[obj]
		seen := map[types.Object]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(info, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, local := g.decls[callee]; local {
				seen[callee] = true
				g.callees[obj] = append(g.callees[obj], callee)
			}
			return true
		})
	}

	// Hot closure from the directive roots.
	var visit func(obj types.Object)
	visit = func(obj types.Object) {
		if g.hot[obj] {
			return
		}
		g.hot[obj] = true
		for _, c := range g.callees[obj] {
			visit(c)
		}
	}
	for _, r := range g.roots {
		visit(r)
	}

	// Local (single-body) summaries.
	for _, obj := range g.Funcs {
		g.sums[obj] = g.localSummary(obj)
	}

	// Fixpoint: propagate callee effects to callers until stable. The
	// lattice is finite (three monotone bits per param/function), so this
	// terminates; iteration order does not affect the result.
	for changed := true; changed; {
		changed = false
		for _, obj := range g.Funcs {
			if g.propagate(obj) {
				changed = true
			}
		}
	}
	return g
}

// isHotRoot reports whether fd carries the hotpath directive.
func isHotRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotDirective || strings.HasPrefix(c.Text, HotDirective+" ") {
			return true
		}
	}
	return false
}

// paramIndex maps a variable object to its position in fd's parameter
// list, or -1. The receiver is not a parameter.
func paramIndex(info *types.Info, fd *ast.FuncDecl, v *types.Var) int {
	if fd.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == v {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// paramCount counts fd's declared parameters.
func paramCount(fd *ast.FuncDecl) int {
	if fd.Type.Params == nil {
		return 0
	}
	n := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
}

// localSummary computes obj's summary from its own body only.
func (g *Graph) localSummary(obj types.Object) *Summary {
	fd := g.decls[obj]
	n := paramCount(fd)
	sum := &Summary{FreesParams: make([]bool, n), BoxesParams: make([]bool, n)}

	asParam := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		v, ok := g.info.Uses[id].(*types.Var)
		if !ok {
			return -1
		}
		return paramIndex(g.info, fd, v)
	}
	noteBox := func(dst types.Type, src ast.Expr) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		tv, ok := g.info.Types[src]
		if !ok || tv.IsNil() {
			return
		}
		if i := asParam(src); i >= 0 {
			sum.BoxesParams[i] = true
		}
		if !PointerShaped(tv.Type) && tv.Value == nil {
			sum.Allocates = true
		}
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CompositeLit:
			sum.Allocates = true
		case *ast.FuncLit:
			if len(CapturedVars(g.info, g.pkg, node)) > 0 {
				sum.Allocates = true
			}
		case *ast.BinaryExpr:
			// Non-constant string concatenation allocates.
			if node.Op == token.ADD {
				if tv, ok := g.info.Types[node.X]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						sum.Allocates = true
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, ok := g.info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append":
						sum.Allocates = true
						if FreeListAppend(g.info, node) {
							sum.DirectFree = true
							for _, v := range node.Args[1:] {
								if i := asParam(v); i >= 0 {
									sum.FreesParams[i] = true
								}
							}
						}
					case "make", "new":
						sum.Allocates = true
					}
					return true
				}
			}
			if tv, ok := g.info.Types[node.Fun]; ok && tv.IsType() {
				// Conversion: interface boxing, or string<->bytes copies.
				if len(node.Args) == 1 {
					noteBox(tv.Type, node.Args[0])
					if StringBytesConv(tv.Type, g.info, node.Args[0]) {
						sum.Allocates = true
					}
				}
				return true
			}
			if AllocatingStdlibCall(g.info, node) {
				sum.Allocates = true
			}
			// Boxing at argument positions.
			if tv, ok := g.info.Types[node.Fun]; ok {
				if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					params := sig.Params()
					for i, arg := range node.Args {
						var pt types.Type
						switch {
						case sig.Variadic() && i >= params.Len()-1:
							if node.Ellipsis.IsValid() {
								continue
							}
							if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
								pt = sl.Elem()
							}
						case i < params.Len():
							pt = params.At(i).Type()
						}
						noteBox(pt, arg)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				if tv, ok := g.info.Types[lhs]; ok {
					noteBox(tv.Type, node.Rhs[i])
				}
			}
		}
		return true
	})
	return sum
}

// propagate folds callee summaries into obj's summary; reports change.
func (g *Graph) propagate(obj types.Object) bool {
	fd := g.decls[obj]
	sum := g.sums[obj]
	changed := false
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := StaticCallee(g.info, call)
		if callee == nil {
			return true
		}
		csum := g.sums[callee]
		if csum == nil {
			return true
		}
		if csum.Allocates && !sum.Allocates {
			sum.Allocates = true
			changed = true
		}
		for j, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := g.info.Uses[id].(*types.Var)
			if !ok {
				continue
			}
			i := paramIndex(g.info, fd, v)
			if i < 0 {
				continue
			}
			if j < len(csum.FreesParams) && csum.FreesParams[j] && !sum.FreesParams[i] {
				sum.FreesParams[i] = true
				changed = true
			}
			if j < len(csum.BoxesParams) && csum.BoxesParams[j] && !sum.BoxesParams[i] {
				sum.BoxesParams[i] = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// FreeListAppend reports whether call is append(target, ...) where target
// names a free-list by convention (free*, *Free) — the recycle sink of the
// slab model.
func FreeListAppend(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return IsFreeListName(terminalName(call.Args[0]))
}

// terminalName extracts the rightmost identifier of an expression
// (d.freeCmds -> "freeCmds", free -> "free"), or "".
func terminalName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return terminalName(e.X)
	}
	return ""
}

// StringBytesConv reports whether converting arg to dst copies a string
// or byte/rune slice (which allocates for non-constant operands).
func StringBytesConv(dst types.Type, info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
	}
	return (isStr(dst) && isByteSlice(tv.Type)) || (isByteSlice(dst) && isStr(tv.Type))
}
