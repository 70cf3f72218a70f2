// Command rpvet is the repo's multichecker: it runs the stock `go vet`
// passes (as a subprocess, when a go toolchain is on PATH) and then the
// five rpbeat invariant analyzers — allocfree, apierrcheck, deadcode,
// poolcheck, snapshotcheck — over the module's packages, exiting nonzero on
// any diagnostic. deadcode and apierrcheck always cover the whole module,
// whatever the patterns. CI runs it before the test tiers so an invariant violation
// fails fast:
//
//	go run ./cmd/rpvet ./...
//
// Flags:
//
//	-novet    skip the stock `go vet` subprocess (custom analyzers only)
//	-list     print the analyzers and their docs, then exit
//
// False positives are waived per site with a
// `//rpvet:allow <analyzer> -- <reason>` comment on the flagged line or
// the line above it; see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"rpbeat/internal/analysis"
	"rpbeat/internal/analysis/allocfree"
	"rpbeat/internal/analysis/apierrcheck"
	"rpbeat/internal/analysis/deadcode"
	"rpbeat/internal/analysis/poolcheck"
	"rpbeat/internal/analysis/snapshotcheck"
)

var analyzers = []*analysis.Analyzer{
	allocfree.Analyzer,
	apierrcheck.Analyzer,
	deadcode.Analyzer,
	poolcheck.Analyzer,
	snapshotcheck.Analyzer,
}

func main() {
	novet := flag.Bool("novet", false, "skip the stock `go vet` passes")
	list := flag.Bool("list", false, "print the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	if err := run(flag.Args(), *novet); err != nil {
		fmt.Fprintln(os.Stderr, "rpvet:", err)
		os.Exit(1)
	}
}

func run(patterns []string, novet bool) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	modPath, err := analysis.ModuleInfo(root)
	if err != nil {
		return err
	}

	failed := false

	// Stock vet first: it owns the classic mistake classes (printf,
	// copylocks, unreachable, ...). Run as a subprocess so rpvet needs no
	// dependency on vet internals; when no go binary is available (a
	// stripped runtime image), the custom analyzers still run.
	if !novet {
		if gobin, lookErr := exec.LookPath("go"); lookErr == nil {
			args := append([]string{"vet"}, patterns...)
			if len(patterns) == 0 {
				args = append(args, "./...")
			}
			cmd := exec.Command(gobin, args...)
			cmd.Dir = root
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				failed = true
			}
		} else {
			fmt.Fprintln(os.Stderr, "rpvet: no go binary on PATH; skipping stock vet passes")
		}
	}

	// The per-package analyzers check the packages the patterns name;
	// deadcode checks the whole module, whatever the patterns.
	loader := analysis.NewLoader(modPath, root)
	load := func(patterns []string) ([]*analysis.Package, error) {
		paths, err := analysis.ExpandPatterns(modPath, root, patterns)
		if err != nil {
			return nil, err
		}
		pkgs := make([]*analysis.Package, 0, len(paths))
		for _, p := range paths {
			pkg, err := loader.Load(p)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", p, err)
			}
			pkgs = append(pkgs, pkg)
		}
		return pkgs, nil
	}
	pkgs, err := load(patterns)
	if err != nil {
		return err
	}
	module, err := load(nil)
	if err != nil {
		return err
	}

	diags, err := analysis.RunAnalyzers(analyzers, pkgs, module)
	if err != nil {
		return err
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
		failed = true
	}

	if failed {
		os.Exit(1)
	}
	return nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
