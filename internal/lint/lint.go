// Package lint is a suite of static analyzers ("niclint") enforcing the
// repository's determinism, hot-path allocation, enum-exhaustiveness and
// hash-stability contracts — the invariants behind byte-identical gated
// reports and zero-alloc observability that golden-file tests only catch
// after a regression lands.
//
// The suite is modeled on golang.org/x/tools/go/analysis but is built
// entirely on the standard library (go/parser, go/types, and the source
// importer), so it runs in hermetic environments with no module downloads.
//
// # Analyzers
//
//   - detlint: in deterministic packages, forbids wall-clock reads
//     (time.Now/Since/Until/Sleep), unseeded math/rand (the package-level
//     functions backed by the shared global source), and range-over-map
//     loops that feed serialization, report, or trace output.
//   - hotpath: functions annotated //nic:hotpath must not contain
//     allocating constructs (append, fmt calls, closures, map/slice
//     literals, make, new, interface boxing).
//   - exhaustive: switches over enum types annotated //nic:exhaustive must
//     cover every declared constant.
//   - hashlint: structs feeding committed spec/report hashes carry
//     //nic:hashstable <sig> pinning their always-encoding field surface —
//     new fields must be ,omitempty or the signature (and every committed
//     hash) changes — and their methods must not range over maps.
//
// # Annotation vocabulary
//
//   - //nic:hotpath       (func doc) function is per-tick hot-path code
//   - //nic:exhaustive    (type doc) switches over this enum must be total
//   - //nic:deterministic (package doc) opt a package into detlint by
//     directive rather than by import path
//   - //nic:wallclock     (line) sanctioned wall-clock read (profiling,
//     wall-time accounting around — never inside — the simulated machine)
//   - //nic:alloc         (line) acknowledged allocation in a hot path
//     (amortized ring growth, cold panic formatting)
//   - //nic:unordered     (line) map iteration order provably cannot reach
//     any ordered output
//   - //nic:nonexhaustive (line) switch intentionally handles a subset
//   - //nic:hashstable <sig> (type doc) struct feeds committed hashes; sig
//     pins the always-encoding field surface (hashlint prints it when empty)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass) error
}

// All returns the full niclint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, Hotpath, Exhaustive, Hashlint}
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass connects one analyzer run over one package to the program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// LineHas reports whether the source line holding pos (or the line
// immediately above it) carries the given //nic: directive — the line-level
// escape-hatch convention shared by every analyzer.
func (p *Pass) LineHas(pos token.Pos, directive string) bool {
	position := p.Fset.Position(pos)
	return p.Pkg.lineDirs[lineKey{position.Filename, position.Line}][directive]
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// calleeIsPkgFunc reports whether the call invokes a package-level function
// (not a method) of the package with the given import path, and returns its
// name.
func (p *Pass) calleeIsPkgFunc(call *ast.CallExpr, pkgPath string) (string, bool) {
	fn := p.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}

// isBuiltin reports whether the call invokes the named builtin.
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// AnalyzerTiming is one analyzer's cumulative wall time across every
// package of a Run.
type AnalyzerTiming struct {
	Analyzer string        `json:"analyzer"`
	Wall     time.Duration `json:"-"`
	WallMs   float64       `json:"wall_ms"`
}

// Run executes the analyzers over the packages and returns the findings
// sorted by file, line, column, then analyzer.
func (prog *Program) Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := prog.RunTimed(pkgs, analyzers)
	return diags, err
}

// RunTimed is Run plus per-analyzer wall time, in the analyzers' given
// order. The lint package is outside the determinism contract (detlint
// skips it), so reading the wall clock here is sanctioned.
func (prog *Program) RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	var diags []Diagnostic
	wall := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Fset: prog.Fset, diags: &diags}
			start := time.Now()
			err := a.Run(pass)
			wall[i] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i] = AnalyzerTiming{
			Analyzer: a.Name,
			Wall:     wall[i],
			WallMs:   float64(wall[i].Microseconds()) / 1e3,
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, timings, nil
}

// funcDocHas reports whether a function declaration's doc comment carries the
// directive.
func funcDocHas(decl *ast.FuncDecl, directive string) bool {
	return commentGroupHas(decl.Doc, directive)
}

// commentGroupHas reports whether any line of the group is the directive.
func commentGroupHas(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if name, _ := parseDirective(c.Text); name == directive {
			return true
		}
	}
	return false
}

// parseDirective extracts a //nic: directive name and its arguments from one
// comment's text, accepting both the machine form "//nic:hotpath" and the
// spaced form "// nic:hotpath". Malformed directives (empty or ill-formed
// names) are rejected outright rather than registered under a garbage key.
func parseDirective(text string) (name, args string) {
	s := strings.TrimPrefix(text, "//")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "nic:") {
		return "", ""
	}
	s = strings.TrimPrefix(s, "nic:")
	name, args, _ = strings.Cut(s, " ")
	name, args = strings.TrimSpace(name), strings.TrimSpace(args)
	if !validDirectiveName(name) {
		return "", ""
	}
	return name, args
}

// validDirectiveName reports whether name is a well-formed directive name: a
// letter followed by letters, digits, underscores, or dashes.
func validDirectiveName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '_' || r == '-'):
		default:
			return false
		}
	}
	return name != ""
}
