// Package apierrcheck enforces the typed-error wire contract in the HTTP
// tiers: every error value that reaches a response-writing sink in
// internal/serve or internal/gate must be a typed apierr value (or pass
// through apierr.From), never a raw fmt.Errorf / errors.New. A raw error
// reaching the wire would render as code "internal" with an arbitrary
// message, silently breaking the byte-identity proxy contract between the
// gateway and the serving tier. Sinks resolve over both tiers at once, so
// the gateway's calls into serve.WriteErr, the tiers' one typed-error
// writer, are checked like calls to a sink of the gateway's own.
package apierrcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"rpbeat/internal/analysis"
)

// Analyzer flags fmt.Errorf/errors.New values flowing into wire-facing
// error sinks of internal/serve and internal/gate.
var Analyzer = &analysis.Analyzer{
	Name: "apierrcheck",
	Doc: "report raw errors reaching wire-facing sinks in internal/serve and internal/gate\n\n" +
		"A sink is any function or closure whose error parameter flows into\n" +
		"apierr.From (the coercion point before wire.AppendError), or that\n" +
		"forwards its error parameter to another sink. At every sink call\n" +
		"site the error argument must not be a fmt.Errorf or errors.New\n" +
		"value — construct a typed apierr code instead, so the client sees\n" +
		"a stable machine-readable refusal.",
	Run:    run,
	Module: true,
}

func run(pass *analysis.Pass) error {
	var tiers []*analysis.Package
	for _, pkg := range pass.Module {
		if strings.HasSuffix(pkg.Path, "internal/serve") || strings.HasSuffix(pkg.Path, "internal/gate") {
			tiers = append(tiers, pkg)
		}
	}
	c := &checker{
		pass:  pass,
		sinks: make(map[types.Object]bool),
		fns:   make(map[types.Object]fn),
	}
	for _, pkg := range tiers {
		c.collect(pkg)
	}
	c.resolveSinks()
	for _, pkg := range tiers {
		c.checkCallSites(pkg)
	}
	return nil
}

// fn is one candidate sink: a declared function or a closure bound to a
// local variable, with its error-typed parameter objects and the type
// information of its package.
type fn struct {
	body    *ast.BlockStmt
	errPars map[types.Object]bool
	info    *types.Info
}

type checker struct {
	pass  *analysis.Pass
	sinks map[types.Object]bool
	fns   map[types.Object]fn
}

// collect gathers every function declaration and every `name := func(...)`
// closure of pkg that has at least one error-typed parameter.
func (c *checker) collect(pkg *analysis.Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if ep := errParams(info, fd.Type.Params); len(ep) > 0 {
				c.fns[obj] = fn{body: fd.Body, errPars: ep, info: info}
			}
			// Closures bound to locals inside any function body.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, rhs := range as.Rhs {
					fl, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(as.Lhs) {
						continue
					}
					id, ok := as.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					vobj := info.Defs[id]
					if vobj == nil {
						vobj = info.Uses[id]
					}
					if vobj == nil {
						continue
					}
					if ep := errParams(info, fl.Type.Params); len(ep) > 0 {
						c.fns[vobj] = fn{body: fl.Body, errPars: ep, info: info}
					}
				}
				return true
			})
		}
	}
}

// errParams returns the set of error-typed parameter objects of a field
// list.
func errParams(info *types.Info, params *ast.FieldList) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if params == nil {
		return out
	}
	for _, field := range params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isErrorType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// resolveSinks marks direct sinks (error param flows into apierr.From) and
// then iterates transitive ones (error param forwarded to a known sink) to
// a fixed point.
func (c *checker) resolveSinks() {
	for obj, f := range c.fns {
		if c.paramFlowsToFrom(f) {
			c.sinks[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, f := range c.fns {
			if c.sinks[obj] {
				continue
			}
			if c.paramForwardedToSink(f) {
				c.sinks[obj] = true
				changed = true
			}
		}
	}
}

func (c *checker) paramFlowsToFrom(f fn) bool {
	info := f.info
	found := false
	ast.Inspect(f.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isApierrFrom(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && f.errPars[info.Uses[id]] {
				found = true
			}
		}
		return true
	})
	return found
}

func (c *checker) paramForwardedToSink(f fn) bool {
	info := f.info
	found := false
	ast.Inspect(f.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeObject(info, call)
		if callee == nil || !c.sinks[callee] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && f.errPars[info.Uses[id]] {
				found = true
			}
		}
		return true
	})
	return found
}

// checkCallSites inspects every call in pkg to a resolved sink and flags
// raw error constructors in its error-typed argument positions.
func (c *checker) checkCallSites(pkg *analysis.Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeObject(info, call)
			if callee == nil || !c.sinks[callee] {
				return true
			}
			sinkName := callee.Name()
			for _, arg := range call.Args {
				if !isErrorExpr(info, arg) {
					continue
				}
				if origin := rawConstructor(info, f, arg); origin != "" {
					c.pass.Reportf(arg.Pos(),
						"raw %s error reaches wire sink %s; use a typed apierr code so the client sees a stable machine-readable error", origin, sinkName)
				}
			}
			return true
		})
	}
}

func isErrorExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	return t != nil && isErrorType(t)
}

// rawConstructor reports the untyped constructor ("fmt.Errorf",
// "errors.New", ...) behind the expression, or "" when the value is typed
// or of unknown provenance. It resolves one level of local or package
// variable indirection.
func rawConstructor(info *types.Info, file *ast.File, e ast.Expr) string {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return rawCall(info, call)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	// Every assignment to the variable must be a raw constructor for the
	// flag to fire — if any source is unknown, stay silent.
	origin := ""
	unknown := false
	ast.Inspect(file, func(n ast.Node) bool {
		if unknown {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || (info.Defs[lid] != v && info.Uses[lid] != v) {
					continue
				}
				if len(n.Rhs) != len(n.Lhs) {
					unknown = true
					return false
				}
				rc, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok {
					unknown = true
					return false
				}
				if o := rawCall(info, rc); o != "" {
					origin = o
				} else {
					unknown = true
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] != v {
					continue
				}
				if i >= len(n.Values) {
					continue // zero value nil: fine
				}
				rc, ok := ast.Unparen(n.Values[i]).(*ast.CallExpr)
				if !ok {
					unknown = true
					return false
				}
				if o := rawCall(info, rc); o != "" {
					origin = o
				} else {
					unknown = true
					return false
				}
			}
		}
		return true
	})
	if unknown {
		return ""
	}
	return origin
}

// rawCall reports "fmt.Errorf" or "errors.New" when the call is one of the
// raw constructors, "" otherwise.
func rawCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	switch {
	case pn.Imported().Path() == "fmt" && sel.Sel.Name == "Errorf":
		return "fmt.Errorf"
	case pn.Imported().Path() == "errors" && sel.Sel.Name == "New":
		return "errors.New"
	}
	return ""
}

// isApierrFrom matches apierr.From(...) for any import whose path ends in
// /apierr (the real package or a fixture stub).
func isApierrFrom(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "From" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "apierr" || strings.HasSuffix(p, "/apierr")
}

// calleeObject resolves the called function to its object: a declared
// function, package-qualified or not, or a local closure variable.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
