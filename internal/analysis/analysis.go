// Package analysis is a self-contained static-analysis framework for the
// repo's own invariant checkers (cmd/rpvet). It mirrors the API shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// checkers themselves read like stock vet passes and could be lifted onto
// the x/tools driver unchanged, but it is built entirely on the standard
// library (go/ast, go/parser, go/types, go/importer): the module has no
// external dependencies and its analyzers must not introduce one.
//
// The framework has three parts:
//
//   - this file: the Analyzer/Pass/Diagnostic contract and the
//     //rpvet:allow suppression mechanism;
//   - load.go: a module-aware package loader that parses and type-checks
//     rpbeat packages from source in dependency order, resolving standard
//     library imports through go/importer's source importer (no `go list`
//     subprocess, no network, no GOPATH);
//   - analysistest/: a fixture harness in the style of x/tools'
//     analysistest, driving an analyzer over testdata/src packages and
//     matching reported diagnostics against `// want "regexp"` comments.
//
// Suppressing a false positive: put the comment
//
//	//rpvet:allow <analyzer> -- <why this site is safe>
//
// on the flagged line or the line directly above it. Suppressions are
// deliberately per-site and per-analyzer; there is no file- or
// package-level escape hatch, so every waived diagnostic is visible next
// to the code it waives.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //rpvet:allow
	// suppression comments.
	Name string
	// Doc is the one-paragraph description `rpvet -help` prints.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
	// Module marks a whole-module analyzer: Run is called once, with
	// Pass.Module holding every package of the module and Pass.Files every
	// file of them (Pkg and TypesInfo are nil).
	Module bool
}

// Pass carries one analyzed package into an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Module    []*Package // every package of the module, for a Module analyzer

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a //rpvet:allow comment for the pass's analyzer
// waives pos, the way it would waive a diagnostic reported there.
func (p *Pass) Allowed(pos token.Pos) bool {
	return suppressed(p.Fset, p.Files, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// allowPrefix opens a suppression comment; the analyzer name follows, then
// optionally " -- reason".
const allowPrefix = "//rpvet:allow "

// suppressed reports whether a //rpvet:allow comment for the named analyzer
// sits on the diagnostic's line or the line directly above it.
func suppressed(fset *token.FileSet, files []*ast.File, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != pos.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(text, "--")
				if strings.TrimSpace(name) != d.Analyzer {
					continue
				}
				if line := fset.Position(c.Pos()).Line; line == pos.Line || line == pos.Line-1 {
					return true
				}
			}
		}
		return false
	}
	return false
}

// RunAnalyzers applies every per-package analyzer to every package of pkgs
// and every Module analyzer once to module, drops suppressed diagnostics
// and returns the rest in file/line order.
func RunAnalyzers(analyzers []*Analyzer, pkgs, module []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	run := func(pass *Pass, what string) error {
		if err := pass.Analyzer.Run(pass); err != nil {
			return fmt.Errorf("%s on %s: %w", pass.Analyzer.Name, what, err)
		}
		for _, d := range pass.diags {
			if !suppressed(pass.Fset, pass.Files, d) {
				out = append(out, d)
			}
		}
		return nil
	}
	for _, a := range analyzers {
		if a.Module {
			if len(module) == 0 {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: module[0].Fset, Module: module}
			for _, pkg := range module {
				pass.Files = append(pass.Files, pkg.Files...)
			}
			if err := run(pass, "the module"); err != nil {
				return out, err
			}
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := run(pass, pkg.Path); err != nil {
				return out, err
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
