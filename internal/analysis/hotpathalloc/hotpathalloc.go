// Package hotpathalloc keeps the event core's zero-allocation discipline
// honest. PR 2 got Engine.Step and the dispatch/finish continuations to 0
// allocs/op by pre-binding every callback and never boxing values into
// interfaces on the per-event path; one careless closure or fmt call would
// quietly give that back, and the benchmark that would notice runs far
// less often than the compiler.
//
// Functions marked with a `//ddvet:hotpath` directive comment — and
// everything statically reachable from them inside the same package — are
// checked for the three per-event allocation shapes:
//
//   - function literals that capture variables (a capturing closure
//     allocates on every evaluation; pre-bind it once at setup),
//   - conversions of non-pointer-shaped values into interfaces (boxing
//     allocates; this is how fmt sneaks onto hot paths),
//   - append inside a loop (amortized growth on a per-event path means
//     steady-state garbage; preallocate or reuse a buffer).
//
// Arguments to panic are exempt: the panic path is cold by definition.
//
// In sim packages the analyzer also polices the pointer-in-any
// continuation protocol at every bind site, hot or cold:
// sim.Engine.AtArg/AfterArg/AfterTimerArg and cpus.Work{ArgFn, Arg} thread
// a pre-bound func value plus an `any` argument through the scheduler
// instead of binding a fresh closure per submission. The bound function
// must be pre-bound (neither a capturing closure nor a method value, both
// of which allocate per bind), and the argument must be pointer-shaped
// (pointer, map, chan, func, unsafe.Pointer, interface, or nil) so boxing
// it into the `any` slot reuses the value word. Bind sites usually run at
// setup, but a boxed scalar pays on every rebind wherever the bind lives.
// A bind-site fault inside a hot function is reported once, by the
// bind-site rule.
//
// The root set, call-graph closure, and capture analysis live in the
// shared flow layer; this analyzer keeps only the shape checks.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"daredevil/internal/analysis/config"
	"daredevil/internal/analysis/flow"
	"daredevil/internal/analysis/framework"
)

// Name is the analyzer name used in diagnostics and allow directives.
const Name = "hotpathalloc"

// Directive marks a function as a hot-path root.
const Directive = flow.HotDirective

// argMethods are the sim.Engine argument-carrying scheduling entry points:
// fn at argument index 1, arg at index 2.
var argMethods = map[string]bool{
	"AtArg":         true,
	"AfterArg":      true,
	"AfterTimerArg": true,
}

const (
	enginePkg  = "daredevil/internal/sim"
	engineType = "Engine"
	workPkg    = "daredevil/internal/cpus"
	workType   = "Work"
)

// New returns the analyzer configured by cfg.
func New(cfg *config.Config) *framework.Analyzer {
	a := &framework.Analyzer{
		Name: Name,
		Doc:  "flag per-event allocation shapes (capturing closures, interface boxing, append-in-loop) in //ddvet:hotpath functions and their intra-package callees, and require pre-bound continuations with pointer-shaped args at AtArg/AfterArg/AfterTimerArg and cpus.Work{ArgFn, Arg} bind sites",
	}
	a.Run = func(pass *framework.Pass) {
		path := pass.Pkg.Path()
		if cfg.Exempted(path, Name) {
			return
		}
		c := &checker{pass: pass, seen: map[fault]bool{}}
		// Bind sites first, so the hot-path walk skips what they reported.
		if cfg.IsSimPackage(path) {
			pass.Inspect(func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					c.bindCall(n)
				case *ast.CompositeLit:
					c.workLit(n)
				}
				return true
			})
		}
		g := flow.Of(pass)
		if !g.HasRoots() {
			return
		}
		for _, obj := range g.Funcs {
			if g.Hot(obj) {
				c.checkFunc(g.Decl(obj))
			}
		}
	}
	return a
}

// fault identifies one reported allocation: its position and shape.
type fault struct {
	pos   token.Pos
	shape string
}

// Fault shapes both the bind-site and the hot-path rules can match.
const (
	closureShape = "closure"
	boxShape     = "box"
)

// checker reports one package's faults, each at most once.
type checker struct {
	pass *framework.Pass
	seen map[fault]bool
}

func (c *checker) report(pos token.Pos, shape, format string, args ...any) {
	f := fault{pos, shape}
	if c.seen[f] {
		return
	}
	c.seen[f] = true
	c.pass.Reportf(pos, format, args...)
}

// bindCall handles e.AtArg(t, fn, arg) and friends on sim.Engine receivers.
func (c *checker) bindCall(call *ast.CallExpr) {
	fn, ok := flow.StaticCallee(c.pass.TypesInfo, call).(*types.Func)
	if !ok || !argMethods[fn.Name()] || len(call.Args) != 3 {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isNamed(recv.Type(), enginePkg, engineType) {
		return
	}
	where := "sim.Engine." + fn.Name()
	c.checkFn(call.Args[1], where)
	c.checkArg(call.Args[2], where)
}

// workLit handles cpus.Work{...} composite literals, keyed or positional.
func (c *checker) workLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok || !isNamed(tv.Type, workPkg, workType) {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return // an elided &Work{...} in a []*Work literal
	}
	for i, elt := range lit.Elts {
		var name string
		var value ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			name, value = key.Name, kv.Value
		} else if i < st.NumFields() {
			name, value = st.Field(i).Name(), elt
		}
		switch name {
		case "ArgFn":
			c.checkFn(value, "cpus.Work.ArgFn")
		case "Arg":
			c.checkArg(value, "cpus.Work.Arg")
		}
	}
}

// checkFn enforces the pre-bound continuation rule on a fn expression.
func (c *checker) checkFn(e ast.Expr, where string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if capt := flow.CapturedVars(c.pass.TypesInfo, c.pass.Pkg, e); len(capt) > 0 {
			c.report(e.Pos(), closureShape, "capturing closure bound at %s allocates per bind (captures %v); pre-bind a func value once and pass state through the arg slot", where, capt)
		}
	case *ast.Ident:
		// A local/field func value or a package-level function: pre-bound.
	case *ast.SelectorExpr:
		sel, ok := c.pass.TypesInfo.Selections[e]
		if ok && sel.Kind() == types.MethodVal {
			c.report(e.Pos(), "method value", "method value %s bound at %s allocates a closure per bind; store the bound func once at construction and pass the field", types.ExprString(e), where)
		}
		// Otherwise a qualified identifier (pkg.Func or pkg.Var): pre-bound.
	default:
		if !isNilExpr(e) {
			c.report(e.Pos(), "unbound", "continuation bound at %s must be a pre-bound func value, got %s", where, types.ExprString(e))
		}
	}
}

// checkArg enforces the pointer-shaped rule on an arg expression.
func (c *checker) checkArg(e ast.Expr, where string) {
	tv, ok := c.pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil || tv.IsNil() || flow.PointerShaped(tv.Type) {
		return
	}
	c.report(e.Pos(), boxShape, "argument %s bound at %s has non-pointer-shaped type %s; boxing it into any allocates per bind — pass a pointer (usually the receiver) instead", types.ExprString(ast.Unparen(e)), where, tv.Type)
}

// isNamed reports whether t (or its pointee) is the named type pkg.Name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkFunc reports allocation shapes inside the hot function fd.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	pass := c.pass
	name := fd.Name.Name
	// stack mirrors the current ancestor chain during the walk; it drives
	// loop-nesting and enclosing-function-signature queries.
	var stack []ast.Node
	loopDepthAt := func() int {
		depth := 0
		for i := len(stack) - 1; i >= 0; i-- {
			switch stack[i].(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				depth++
			case *ast.FuncLit:
				return depth
			}
		}
		return depth
	}
	resultsAt := func() *types.Tuple {
		for i := len(stack) - 1; i >= 0; i-- {
			if lit, ok := stack[i].(*ast.FuncLit); ok {
				if sig, ok := pass.TypesInfo.Types[lit].Type.(*types.Signature); ok {
					return sig.Results()
				}
				return nil
			}
		}
		if sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature); ok {
			return sig.Results()
		}
		return nil
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := flow.CapturedVars(pass.TypesInfo, pass.Pkg, n); len(capt) > 0 {
				c.report(n.Pos(), closureShape, "closure on hot path (in %s) captures %s; it allocates per evaluation — pre-bind it at setup", name, strings.Join(capt, ", "))
			}
		case *ast.CallExpr:
			c.checkCall(n, name, loopDepthAt())
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if tv, ok := pass.TypesInfo.Types[lhs]; ok {
					c.reportBox(tv.Type, n.Rhs[i], name)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if tv, ok := pass.TypesInfo.Types[n.Type]; ok {
					for _, v := range n.Values {
						c.reportBox(tv.Type, v, name)
					}
				}
			}
		case *ast.ReturnStmt:
			results := resultsAt()
			if results != nil && len(n.Results) == results.Len() {
				for i, r := range n.Results {
					c.reportBox(results.At(i).Type(), r, name)
				}
			}
		}
		return true
	})
}

// checkCall flags append-in-loop and boxing at call argument positions.
func (c *checker) checkCall(call *ast.CallExpr, hot string, loopDepth int) {
	pass := c.pass
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if obj.Name() == "append" && loopDepth > 0 {
				c.report(call.Pos(), "append", "append inside a loop on hot path (in %s); steady-state growth allocates — preallocate or reuse the buffer", hot)
			}
			return // builtins (incl. panic’s cold path) take no boxing check
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		// Conversions: T(x) where T is an interface type boxes x.
		if ok && tv.IsType() && len(call.Args) == 1 {
			c.reportBox(tv.Type, call.Args[0], hot)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.reportBox(pt, arg, hot)
	}
}

// reportBox reports if assigning src into a dst-typed location boxes a
// non-pointer-shaped value into an interface (which allocates).
func (c *checker) reportBox(dst types.Type, src ast.Expr, hot string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	if flow.PointerShaped(tv.Type) {
		// Pointer-shaped values fit the interface word; no allocation.
		return
	}
	c.report(src.Pos(), boxShape, "value of type %s boxed into %s on hot path (in %s); interface conversion allocates per event",
		types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)), types.TypeString(dst, types.RelativeTo(c.pass.Pkg)), hot)
}
