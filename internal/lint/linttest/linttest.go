// Package linttest runs lint analyzers over fixture packages and compares the
// reported diagnostics against expectations embedded in the fixture source, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a comment of the form
//
//	// want `regexp` [`regexp` ...]
//
// on the line the diagnostic is reported at. Every diagnostic must match one
// expectation on its line, and every expectation must be matched by exactly
// one diagnostic.
package linttest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	progMu    sync.Mutex // guards progCache
	progCache = map[string]*lint.Program{}
)

// program returns a shared Program for the fixture module rooted at dir, so
// the fixtures (and the std packages they pull in) type-check once per test
// binary rather than once per analyzer.
func program(t *testing.T, dir string) *lint.Program {
	t.Helper()
	progMu.Lock()
	defer progMu.Unlock()
	if p, ok := progCache[dir]; ok {
		return p
	}
	p, err := lint.NewProgram(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	progCache[dir] = p
	return p
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package importPath from the module rooted at root,
// runs the single analyzer over it, and checks diagnostics against the
// package's want comments.
func Run(t *testing.T, root string, a *lint.Analyzer, importPath string) {
	t.Helper()
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	prog := program(t, abs)
	pkg, err := prog.Load(importPath)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", importPath, err)
	}
	diags, err := prog.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: run %s on %s: %v", a.Name, importPath, err)
	}

	wants := parseWants(t, prog, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matched %q", w.file, w.line, a.Name, w.re)
		}
	}
}

// parseWants collects the fixture's want comments with their positions.
func parseWants(t *testing.T, prog *lint.Program, pkg *lint.Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q", pos, c.Text)
					}
					expr, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %q", pos, q)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
					rest = rest[len(q):]
				}
			}
		}
	}
	return out
}
