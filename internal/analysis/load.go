package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	Path  string // import path ("rpbeat/internal/wire", fixture path, ...)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. It resolves imports
// in three tiers: an optional overlay directory first (the analysistest
// fixture root, mapping import path -> Overlay/<path>), then the module's
// own packages (ModulePath prefix -> ModuleDir), then the standard library
// from its compiler export data (go/importer's gc importer, which asks the
// go command where that data is). Module and overlay packages are
// type-checked recursively in dependency order and memoized, so every
// package is checked exactly once per Loader.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string // "" disables module resolution
	ModuleDir  string
	Overlay    string // "" disables overlay resolution

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module (either argument may be
// empty for overlay-only use).
func NewLoader(modulePath, moduleDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// ModuleInfo reads the module path out of dir/go.mod.
func ModuleInfo(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// dirFor resolves an import path onto a source directory, or ok=false when
// the path belongs to the standard library (or nowhere we resolve).
func (l *Loader) dirFor(path string) (string, bool) {
	if l.Overlay != "" {
		dir := filepath.Join(l.Overlay, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir, true
		}
		if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), true
		}
	}
	return "", false
}

// Import implements types.Importer over the three resolution tiers, so the
// type checker pulls dependencies through the loader itself.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the import path (resolved per
// the loader's tiers; standard-library paths are rejected — analyze the
// repo, not the toolchain).
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve %q to a source directory", path)
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// sourceFiles lists the buildable non-test Go files of dir, sorted. The
// module carries no build tags or platform-suffixed files (pure stdlib,
// single build shape), so filtering is by suffix only.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages enumerates every package directory of the module (skipping
// testdata, hidden and vendor directories) as import paths, sorted — the
// expansion of the "./..." pattern.
func ModulePackages(modulePath, moduleDir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(moduleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != moduleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := sourceFiles(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(moduleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, modulePath)
		} else {
			paths = append(paths, modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// ExpandPatterns maps rpvet's command-line patterns onto module import
// paths: "./..." (or "all") is every module package, "./x/..." a subtree,
// "./x" or "rpbeat/x" a single package.
func ExpandPatterns(modulePath, moduleDir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := ModulePackages(modulePath, moduleDir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := toImportPath(modulePath, strings.TrimSuffix(pat, "/..."))
			matched := false
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no packages match %q", pat)
			}
		default:
			p := toImportPath(modulePath, pat)
			found := false
			for _, known := range all {
				if known == p {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("no package matches %q", pat)
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// toImportPath canonicalizes one pattern element: "./x" and "x" become
// module-relative, "." the module root, full import paths pass through.
func toImportPath(modulePath, pat string) string {
	pat = strings.TrimSuffix(pat, "/")
	if pat == "." || pat == "./" || pat == "" {
		return modulePath
	}
	if rel, ok := strings.CutPrefix(pat, "./"); ok {
		return modulePath + "/" + rel
	}
	if pat == modulePath || strings.HasPrefix(pat, modulePath+"/") {
		return pat
	}
	return modulePath + "/" + pat
}
