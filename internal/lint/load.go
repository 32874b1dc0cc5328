package lint

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

// A Program is a loaded, type-checked set of module packages plus the
// cross-package annotation registries the analyzers consult.
type Program struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
	std     types.ImporterFrom  // GOROOT source importer for std packages

	// units maps a //nic:unit-annotated type name to its dimension string.
	units map[types.Object]string
	// exhaustive records //nic:exhaustive-annotated enum type names.
	exhaustive map[types.Object]bool
	// hashPins maps a //nic:hashstable-annotated struct type to its pinned
	// always-encoding field signature.
	hashPins map[types.Object]*hashPin
}

// A Package is one loaded module package.
type Package struct {
	Path  string
	Dir   string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// lineDirs indexes //nic: line directives: a directive on line L applies
	// to lines L and L+1, covering both trailing and preceding placement.
	lineDirs map[lineKey]map[string]bool
	// pkgDirs holds package-level directives from any file's package doc.
	pkgDirs map[string]bool
}

type lineKey struct {
	file string
	line int
}

// NewProgram creates a program rooted at the module containing dir.
func NewProgram(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Program{
		Fset:       fset,
		ModuleDir:  modDir,
		ModulePath: modPath,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		units:      map[types.Object]string{},
		exhaustive: map[types.Object]bool{},
		hashPins:   map[types.Object]*hashPin{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the module
// directory and path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
	}
}

// Expand resolves package patterns relative to the module directory into
// import paths. Supported forms: "./..." and "dir/..." recursive patterns,
// and plain directory paths ("./internal/sim", "internal/sim", "."). Like
// the go tool, recursive patterns skip testdata, vendor, and hidden or
// underscore-prefixed directories.
func (prog *Program) Expand(patterns []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(dir string) {
		if hasGoFiles(dir) {
			if ip := prog.importPathFor(dir); !seen[ip] {
				seen[ip] = true
				out = append(out, ip)
			}
		}
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			rec = true
			pat = "."
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(prog.ModuleDir, pat)
		}
		if !rec {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test Go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (prog *Program) importPathFor(dir string) string {
	rel, err := filepath.Rel(prog.ModuleDir, dir)
	if err != nil || rel == "." {
		return prog.ModulePath
	}
	return prog.ModulePath + "/" + filepath.ToSlash(rel)
}

// Load loads and type-checks the package with the given import path (which
// must be inside the module), memoized.
func (prog *Program) Load(importPath string) (*Package, error) {
	if pkg, ok := prog.pkgs[importPath]; ok {
		return pkg, nil
	}
	if prog.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	prog.loading[importPath] = true
	defer delete(prog.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, prog.ModulePath), "/")
	dir := filepath.Join(prog.ModuleDir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", importPath, dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: progImporter{prog},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, prog.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", importPath, strings.Join(msgs, "\n  "))
	}

	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Name:  tpkg.Name(),
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	prog.indexDirectives(pkg)
	prog.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadPatterns expands patterns and loads every matched package.
func (prog *Program) LoadPatterns(patterns []string) ([]*Package, error) {
	paths, err := prog.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := prog.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// progImporter resolves imports during type checking: module-internal paths
// recurse through the program loader, everything else comes from the GOROOT
// source importer.
type progImporter struct{ prog *Program }

func (i progImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == i.prog.ModulePath || strings.HasPrefix(path, i.prog.ModulePath+"/") {
		pkg, err := i.prog.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return i.prog.std.ImportFrom(path, dir, 0)
}

// indexDirectives builds the package's line-directive index and registers
// type- and package-level annotations with the program.
func (prog *Program) indexDirectives(pkg *Package) {
	pkg.lineDirs = map[lineKey]map[string]bool{}
	pkg.pkgDirs = map[string]bool{}
	mark := func(file string, line int, name string) {
		for _, l := range [2]int{line, line + 1} {
			k := lineKey{file, l}
			if pkg.lineDirs[k] == nil {
				pkg.lineDirs[k] = map[string]bool{}
			}
			pkg.lineDirs[k][name] = true
		}
	}
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				name, _ := parseDirective(c.Text)
				if name == "" {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				mark(pos.Filename, pos.Line, name)
			}
		}
		for _, c := range directivesOf(f.Doc) {
			pkg.pkgDirs[c] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gd, ok := n.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range [2]*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						name, args := parseDirective(c.Text)
						obj := pkg.Info.Defs[ts.Name]
						if obj == nil {
							continue
						}
						switch name {
						case "unit":
							prog.units[obj] = args
						case "exhaustive":
							prog.exhaustive[obj] = true
						case "hashstable":
							prog.hashPins[obj] = &hashPin{sig: firstArg(args), pos: ts.Pos()}
						}
					}
				}
			}
			return true
		})
	}
}

// firstArg returns the first whitespace-separated token of a directive's
// arguments, letting annotations carry trailing prose.
func firstArg(args string) string {
	if f := strings.Fields(args); len(f) > 0 {
		return f[0]
	}
	return ""
}

// directivesOf lists the directive names in a comment group.
func directivesOf(g *ast.CommentGroup) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		if name, _ := parseDirective(c.Text); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// UnitDim returns the //nic:unit dimension of a type, or "" when the type is
// not a unit type. Only directly annotated named types carry a dimension.
func (prog *Program) UnitDim(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return prog.units[named.Obj()]
}

// IsExhaustiveEnum reports whether the named type is annotated
// //nic:exhaustive and returns its type name object.
func (prog *Program) IsExhaustiveEnum(t types.Type) (*types.TypeName, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	if !prog.exhaustive[named.Obj()] {
		return nil, false
	}
	return named.Obj(), true
}
