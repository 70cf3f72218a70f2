// Package snapshotcheck guards the copy-on-write publication discipline:
// once a value is published through atomic.Pointer.Store (the catalog's
// snapshots), concurrent readers hold it lock-free, so any subsequent write
// through the published pointer is a data race — the whole point of
// copy-on-write is that published values are frozen and mutation happens
// on a fresh copy before the next Store.
package snapshotcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"rpbeat/internal/analysis"
)

// Analyzer flags mutations through a pointer after it was published via
// atomic.Pointer.Store / CompareAndSwap.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotcheck",
	Doc: "report mutations of a value after it was published via atomic.Pointer.Store\n\n" +
		"Within a function, once a local pointer p is passed to an\n" +
		"atomic.Pointer Store (or as the new value of a CompareAndSwap),\n" +
		"any later assignment through p — p.f = v, p.xs[i] = v, *p = v,\n" +
		"p.f++ — is flagged: lock-free readers may already hold the\n" +
		"snapshot. Build the value completely, then publish it last.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// published is one Store site: the local pointer object and where it was
// published.
type published struct {
	obj types.Object
	pos token.Pos
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// First pass: collect publication sites.
	var pubs []published
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := atomicPointerMethod(info, call)
		if !ok {
			return true
		}
		var val ast.Expr
		switch name {
		case "Store":
			if len(call.Args) == 1 {
				val = call.Args[0]
			}
		case "CompareAndSwap":
			if len(call.Args) == 2 {
				val = call.Args[1]
			}
		}
		if val == nil {
			return true
		}
		if id, ok := ast.Unparen(val).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok {
				pubs = append(pubs, published{obj: obj, pos: call.Pos()})
			}
		}
		return true
	})
	if len(pubs) == 0 {
		return
	}

	// Rebinding the local to a fresh value (next = &snap{...}) starts a new
	// unpublished snapshot under the same name: writes after a rebind are
	// building the next value, not mutating the published one.
	var rebinds []published
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj, ok := info.Uses[id].(*types.Var); ok {
					rebinds = append(rebinds, published{obj: obj, pos: as.Pos()})
				}
			}
		}
		return true
	})

	// Second pass: writes through a published pointer after its Store, in
	// source order — the straight-line approximation of "after publication".
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, pubs, rebinds, lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			checkWrite(pass, pubs, rebinds, n.X, n.Pos())
		}
		return true
	})
}

// checkWrite flags the write when its target dereferences a pointer that
// an earlier (in source order) Store already published, with no
// intervening rebind of the local.
func checkWrite(pass *analysis.Pass, pubs, rebinds []published, lhs ast.Expr, pos token.Pos) {
	root, derefs := writeRoot(lhs)
	if root == nil || !derefs {
		return
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		return
	}
	for _, p := range pubs {
		if p.obj != obj || pos <= p.pos {
			continue
		}
		rebound := false
		for _, rb := range rebinds {
			if rb.obj == obj && rb.pos > p.pos && rb.pos < pos {
				rebound = true
				break
			}
		}
		if !rebound {
			pass.Reportf(pos, "snapshot %s is mutated after being published via atomic.Pointer.Store; copy-on-write values must be frozen once stored", obj.Name())
			return
		}
	}
}

// writeRoot unwraps the write target to its root identifier and reports
// whether the path goes through a dereference (selector on a pointer,
// index, or explicit *p) — a bare `p = ...` rebinds the local and is fine.
func writeRoot(e ast.Expr) (*ast.Ident, bool) {
	derefs := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, derefs
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			derefs = true
			e = x.X
		case *ast.IndexExpr:
			derefs = true
			e = x.X
		case *ast.StarExpr:
			derefs = true
			e = x.X
		case *ast.SliceExpr:
			derefs = true
			e = x.X
		default:
			return nil, false
		}
	}
}

// atomicPointerMethod matches a method call on sync/atomic's Pointer[T]
// (or the pre-generics atomic.Value, which has the same publish-then-
// freeze contract), returning the method name.
func atomicPointerMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fobj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fobj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if name := tn.Name(); name != "Pointer" && name != "Value" {
		return "", false
	}
	return fobj.Name(), true
}
