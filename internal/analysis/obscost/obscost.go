// Package obscost turns "zero-cost-when-off" from a benchmark hope into a
// lint guarantee. The observability layer (internal/obs) is threaded
// through every hot path in the simulator — span stamps, flight-ring
// records, gauge pulls — on the contract that a disabled observer costs
// one nil compare and nothing else. Nothing enforced that: an obs hook
// argument that calls fmt.Sprintf or builds a slice allocates on every
// event whether observability is on or off, and
// TestSteadyStateDevicePathAllocFree only notices after the damage lands.
//
// For every call to an internal/obs method inside a function reachable
// from a //ddvet:hotpath root (the flow layer's closure), the analyzer
// requires:
//
//   - the call is nil-guarded: the method is on the config's nilSafeHooks
//     list (Ring.Record and the Span hooks check their own receiver), or
//     the receiver is dominated by an explicit nil check — either an
//     enclosing `if recv != nil` or a preceding `if recv == nil { return }`
//     in the same block;
//
//   - every argument expression is allocation-free: no composite
//     literals, make/new/append, string concatenation or string<->[]byte
//     conversions, no calls into allocating stdlib (fmt, strings.Join,
//     ...), and no calls to intra-package functions whose flow summary
//     allocates. Capturing closures are left to hotpathalloc, which flags
//     every one in a hot function at the same position.
//
// Cold code may do what it likes; the point is that the obs seam on the
// event path stays exactly one pointer compare wide.
package obscost

import (
	"go/ast"
	"go/token"
	"go/types"

	"daredevil/internal/analysis/config"
	"daredevil/internal/analysis/flow"
	"daredevil/internal/analysis/framework"
)

// Name is the analyzer name used in diagnostics and allow directives.
const Name = "obscost"

// New returns the analyzer configured by cfg.
func New(cfg *config.Config) *framework.Analyzer {
	a := &framework.Analyzer{
		Name: Name,
		Doc:  "require obs hook calls on hot paths to be nil-guarded and allocation-free in their argument expressions (zero-cost-when-off as a checked property)",
	}
	a.Run = func(pass *framework.Pass) {
		path := pass.Pkg.Path()
		if !cfg.IsSimPackage(path) || cfg.IsObsPackage(path) || cfg.Exempted(path, Name) {
			return
		}
		g := flow.Of(pass)
		if !g.HasRoots() {
			return
		}
		for _, obj := range g.Funcs {
			if !g.Hot(obj) {
				continue
			}
			c := &checker{pass: pass, cfg: cfg, g: g, fname: obj.Name()}
			c.block(g.Decl(obj).Body.List, map[string]bool{})
		}
	}
	return a
}

// checker walks one hot function, tracking receiver expressions proven
// non-nil by the enclosing control flow (by rendered expression string).
type checker struct {
	pass  *framework.Pass
	cfg   *config.Config
	g     *flow.Graph
	fname string
}

// block processes statements in order, threading the non-nil fact set.
func (c *checker) block(stmts []ast.Stmt, nonNil map[string]bool) {
	for _, s := range stmts {
		c.stmt(s, nonNil)
	}
}

func copySet(m map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// nilCheckedExprs extracts expressions cond proves non-nil when true
// (`x != nil`, possibly conjoined with &&).
func nilCheckedExprs(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND:
				walk(e.X)
				walk(e.Y)
			case token.NEQ:
				if isNilIdent(e.Y) {
					out = append(out, types.ExprString(ast.Unparen(e.X)))
				} else if isNilIdent(e.X) {
					out = append(out, types.ExprString(ast.Unparen(e.Y)))
				}
			}
		}
	}
	walk(cond)
	return out
}

// nilBailExprs extracts expressions proven non-nil after the if statement
// when its body unconditionally leaves the block (`if x == nil { return }`).
func nilBailExprs(s *ast.IfStmt) []string {
	if s.Else != nil || len(s.Body.List) == 0 {
		return nil
	}
	switch last := s.Body.List[len(s.Body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return nil
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return nil
		}
	default:
		return nil
	}
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LOR:
				walk(e.X)
				walk(e.Y)
			case token.EQL:
				if isNilIdent(e.Y) {
					out = append(out, types.ExprString(ast.Unparen(e.X)))
				} else if isNilIdent(e.X) {
					out = append(out, types.ExprString(ast.Unparen(e.Y)))
				}
			}
		}
	}
	walk(s.Cond)
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// stmt checks one statement's expressions under the current facts, then
// updates the facts it establishes for the rest of the block.
func (c *checker) stmt(s ast.Stmt, nonNil map[string]bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.block(s.List, copySet(nonNil))
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, nonNil)
		}
		c.checkExprs(s.Cond, nonNil)
		inside := copySet(nonNil)
		for _, x := range nilCheckedExprs(s.Cond) {
			inside[x] = true
		}
		c.block(s.Body.List, inside)
		if s.Else != nil {
			c.stmt(s.Else, copySet(nonNil))
		}
		for _, x := range nilBailExprs(s) {
			nonNil[x] = true
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, nonNil)
		}
		body := copySet(nonNil)
		if s.Cond != nil {
			c.checkExprs(s.Cond, nonNil)
			for _, x := range nilCheckedExprs(s.Cond) {
				body[x] = true
			}
		}
		c.block(s.Body.List, body)
		if s.Post != nil {
			c.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		c.checkExprs(s.X, nonNil)
		c.block(s.Body.List, copySet(nonNil))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, nonNil)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.block(cl.Body, copySet(nonNil))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.block(cl.Body, copySet(nonNil))
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, nonNil)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExprs(e, nonNil)
		}
		// A reassigned name invalidates facts rooted at it.
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				for k := range nonNil {
					if k == id.Name || len(k) > len(id.Name) && k[:len(id.Name)] == id.Name && k[len(id.Name)] == '.' {
						delete(nonNil, k)
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.checkExprs(s.X, nonNil)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExprs(e, nonNil)
		}
	case *ast.DeferStmt:
		c.checkExprs(s.Call, nonNil)
	case *ast.GoStmt:
		c.checkExprs(s.Call, nonNil)
	case *ast.IncDecStmt:
		c.checkExprs(s.X, nonNil)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.checkExprs(e, nonNil)
					}
				}
			}
		}
	}
}

// checkExprs finds obs hook calls anywhere in e and applies both rules.
func (c *checker) checkExprs(e ast.Expr, nonNil map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, hook := c.obsHook(call)
		if hook == "" {
			return true
		}
		if !c.cfg.IsNilSafeHook(hook) {
			r := types.ExprString(ast.Unparen(recv))
			if !nonNil[r] {
				c.pass.Reportf(call.Pos(), "obs hook %s called on hot path (in %s) without a nil guard on %s; guard with `if %s != nil` or list the hook in nilSafeHooks if it checks its own receiver", hook, c.fname, r, r)
			}
		}
		for _, arg := range call.Args {
			c.checkArgAllocFree(arg, hook)
		}
		return true
	})
}

// obsHook resolves call to (receiver expression, "pkg.Type.Method") when
// it invokes a method whose receiver type is declared in an obs package;
// otherwise hook is "".
func (c *checker) obsHook(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, ""
	}
	pkgPath := named.Obj().Pkg().Path()
	if !c.cfg.IsObsPackage(pkgPath) {
		return nil, ""
	}
	return sel.X, pkgPath + "." + named.Obj().Name() + "." + fn.Name()
}

// checkArgAllocFree reports any allocation shape inside one hook argument.
func (c *checker) checkArgAllocFree(arg ast.Expr, hook string) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The body runs later, not per hook call; a capturing
			// literal is hotpathalloc's hot-path closure finding.
			return false
		case *ast.CompositeLit:
			c.report(n.Pos(), hook, "composite literal")
			return false
		case *ast.BinaryExpr:
			// Constant-folded concatenation is free; anything else builds a
			// fresh string per event.
			if n.Op == token.ADD {
				if tv, ok := c.pass.TypesInfo.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						c.report(n.Pos(), hook, "string concatenation")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						c.report(n.Pos(), hook, b.Name()+" call")
					}
					return true
				}
			}
			if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				// Scalar conversions are free; string<->[]byte copies.
				if len(n.Args) == 1 && flow.StringBytesConv(tv.Type, c.pass.TypesInfo, n.Args[0]) {
					c.report(n.Pos(), hook, "string/[]byte conversion")
				}
				return true
			}
			if flow.AllocatingStdlibCall(c.pass.TypesInfo, n) {
				c.report(n.Pos(), hook, "allocating stdlib call")
			} else if c.g.AllocatingCall(n) {
				c.report(n.Pos(), hook, "call to an allocating function")
			}
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, hook, shape string) {
	c.pass.Reportf(pos, "%s in argument to obs hook %s on hot path (in %s); hook arguments run even when observability is off — hoist the value or record raw scalars", shape, hook, c.fname)
}
