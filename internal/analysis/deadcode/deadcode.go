// Package deadcode reports the exported declarations of the module's
// internal packages that no program reaches. The programs are the module's
// main packages (cmd/, examples/, benchmark/); a test is not a program, so
// a declaration only a _test.go file uses is code the binaries carry for a
// test's sake. Unexported dead code is staticcheck's U1000, which sees one
// package at a time; this pass sees the module whole, which no per-package
// check can.
package deadcode

import (
	"go/ast"
	"go/types"
	"strings"

	"rpbeat/internal/analysis"
)

// Analyzer reports exported top-level declarations of internal packages
// that no main package reaches.
var Analyzer = &analysis.Analyzer{
	Name: "deadcode",
	Doc: "report exported declarations of internal packages that no program reaches\n\n" +
		"Starting from the main and init functions of every package main,\n" +
		"the pass follows identifier uses (a generic instantiation to its\n" +
		"origin) and keeps a method when its receiver type is reached and\n" +
		"its name is a method of some interface type in the program. Every\n" +
		"exported top-level func, method, type, var or const of an internal\n" +
		"package left unreached is reported. Code a test or benchmark keeps\n" +
		"as its reference is waived where it is declared, with a reason that\n" +
		"names that test; a waived declaration is a root like main. The pass\n" +
		"always covers the whole module, whatever packages rpvet is given.",
	Run:    run,
	Module: true,
}

// decl is one top-level declaration: the syntax naming what it uses, the
// type information resolving those names, and its package's import path.
type decl struct {
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	info *types.Info
	path string
}

func run(pass *analysis.Pass) error {
	decls := make(map[types.Object]decl)
	var roots []types.Object
	for _, pkg := range pass.Module {
		isMain := pkg.Types.Name() == "main"
		add := func(id *ast.Ident, node ast.Node, root bool) {
			obj := pkg.Info.Defs[id]
			if obj == nil {
				return
			}
			decls[obj] = decl{node, pkg.Info, pkg.Path}
			if root || pass.Allowed(id.Pos()) {
				roots = append(roots, obj)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// An init runs whenever its package is linked.
					add(d.Name, d, d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main"))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, false)
						case *ast.ValueSpec:
							// A blank var runs for its initializer and cannot
							// be named.
							for _, id := range s.Names {
								add(id, s, id.Name == "_")
							}
						}
					}
				}
			}
		}
	}

	ifaces := interfaceMethods(pass.Module)
	reached := make(map[types.Object]bool)
	var queue []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := decls[obj]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if use := d.info.Uses[id]; use != nil {
					mark(use)
				}
			}
			return true
		})
		// An object reaches its type, which a const repeated implicitly in
		// an iota group does not name.
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		mark(named.Obj())
		if _, isType := obj.(*types.TypeName); isType {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); ifaces[m.Name()] {
					mark(m)
				}
			}
		}
	}

	for obj, d := range decls {
		if !reached[obj] && obj.Exported() && strings.Contains("/"+d.path+"/", "/internal/") {
			pass.Reportf(obj.Pos(), "no program reaches %s", describe(obj))
		}
	}
	return nil
}

// interfaceMethods collects the method names of every interface type the
// module writes and of every named interface type in the packages it
// imports: a method of that name may be called through the interface,
// which no identifier use records.
func interfaceMethods(pkgs []*analysis.Package) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		visit(pkg.Types)
	}
	return names
}

// describe names obj as its kind and package-qualified name, e.g.
// "method gate.Gateway.Add".
func describe(obj types.Object) string {
	kind, name := "var", obj.Name()
	switch obj.(type) {
	case *types.Func:
		kind = "func"
	case *types.TypeName:
		kind = "type"
	case *types.Const:
		kind = "const"
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		kind = "method"
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return kind + " " + obj.Pkg().Name() + "." + name
}
