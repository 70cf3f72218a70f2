// Package analysistest drives an analyzer over fixture packages and
// matches its diagnostics against expectations embedded in the fixtures,
// in the style of golang.org/x/tools/go/analysis/analysistest:
//
//	err := doThing() // want `raw fmt\.Errorf`
//
// Each `// want "regexp"` (or backquoted) expectation on a line must be
// matched by a diagnostic reported on that line, and every diagnostic must
// match an expectation — unexpected diagnostics fail the test, so negative
// fixtures are just clean code with no want comments.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rpbeat/internal/analysis"
)

// TestData returns the testdata directory of the caller's package
// (resolved relative to the test's working directory).
//
//rpvet:allow deadcode -- test harness: every analyzer's fixture test loads its testdata through it
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads each fixture package from testdata/src/<path>, applies the
// analyzer, and checks diagnostics against the fixtures' want comments.
// Imports between fixture packages resolve inside testdata/src, so a
// fixture at testdata/src/rpbeat/internal/serve can import a stub
// rpbeat/internal/apierr placed next to it. A Module analyzer sees the
// listed packages as the whole module.
//
//rpvet:allow deadcode -- test harness: every analyzer's fixture test runs through it
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := analysis.NewLoader("", "")
	loader.Overlay = filepath.Join(testdata, "src")

	var pkgs []*analysis.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, pkgs, pkgs)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			for _, w := range parseWants(t, name) {
				k := key{name, w.line}
				wants[k] = append(wants[k], w)
			}
		}
	}

	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the expectation list of a line: everything after
// `// want`.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants scans a fixture file for `// want "re" "re" ...` comments
// (double-quoted or backquoted regexps).
func parseWants(t *testing.T, filename string) []*want {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var out []*want
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		for rest != "" {
			var raw string
			var err error
			switch rest[0] {
			case '"':
				end := matchedQuote(rest)
				if end < 0 {
					t.Fatalf("%s:%d: unterminated want pattern", filename, i+1)
				}
				raw, err = strconv.Unquote(rest[:end+1])
				rest = strings.TrimSpace(rest[end+1:])
			case '`':
				end := strings.IndexByte(rest[1:], '`')
				if end < 0 {
					t.Fatalf("%s:%d: unterminated want pattern", filename, i+1)
				}
				raw = rest[1 : end+1]
				rest = strings.TrimSpace(rest[end+2:])
			default:
				t.Fatalf("%s:%d: malformed want expectation near %q", filename, i+1, rest)
			}
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", filename, i+1, err)
			}
			re, err := regexp.Compile(raw)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", filename, i+1, err)
			}
			out = append(out, &want{line: i + 1, re: re})
		}
	}
	return out
}

// matchedQuote returns the index of the closing double quote of a string
// starting at index 0, honoring backslash escapes, or -1.
func matchedQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
