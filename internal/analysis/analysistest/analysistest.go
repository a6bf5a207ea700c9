// Package analysistest runs an analyzer over a corpus of source files
// annotated with `// want "regexp"` comments and reports any mismatch
// between expected and actual diagnostics — the same contract as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the stdlib
// so the corpus tests carry no external dependency.
//
// Corpus layout is testdata/src/<pkg>/*.go. A corpus package may
// import the standard library, any package of the enclosing module
// (compiled export data is resolved through `go list -export`), or a
// sibling corpus package by its bare directory name.
//
// An expectation is a line comment of the form
//
//	code // want "first regexp" "second regexp"
//
// attached to the line the diagnostic must point at. Every diagnostic
// must match one expectation on its line, and every expectation must
// be consumed, or the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/analysis"
)

// Run analyzes each named corpus package under testdata/src and
// compares the diagnostics against the `// want` expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		srcRoot: filepath.Join(testdata, "src"),
		modRoot: findModuleRoot(testdata),
		loaded:  make(map[string]*corpusPkg),
		exports: make(map[string]string),
	}
	ld.imp = importer.ForCompiler(fset, "gc", ld.lookupExport)
	for _, name := range pkgs {
		cp, err := ld.load(name)
		if err != nil {
			t.Fatalf("loading corpus package %q: %v", name, err)
		}
		checkPackage(t, fset, a, cp)
	}
}

type corpusPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	fset    *token.FileSet
	srcRoot string // testdata/src
	modRoot string // directory containing go.mod
	imp     types.Importer
	loaded  map[string]*corpusPkg
	exports map[string]string // import path -> export file
}

// load parses and type-checks one corpus package, resolving imports
// through resolve.
func (ld *loader) load(name string) (*corpusPkg, error) {
	if cp, ok := ld.loaded[name]; ok {
		return cp, nil
	}
	dir := filepath.Join(ld.srcRoot, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	files, err := analysis.ParseFiles(ld.fset, dir, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := analysis.TypeCheck(ld.fset, name, files, importerFunc(ld.resolve))
	if err != nil {
		return nil, err
	}
	cp := &corpusPkg{path: name, files: files, pkg: pkg, info: info}
	ld.loaded[name] = cp
	return cp, nil
}

// resolve satisfies an import from a corpus package: sibling corpus
// directories win over module/stdlib packages of the same name.
func (ld *loader) resolve(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(ld.srcRoot, path)); err == nil && st.IsDir() {
		cp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	return ld.imp.Import(path)
}

// lookupExport feeds the gc importer compiled export data, produced on
// demand with `go list -export` from the module root.
func (ld *loader) lookupExport(path string) (io.ReadCloser, error) {
	exp, ok := ld.exports[path]
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = ld.modRoot
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export %s: %v", path, err)
		}
		exp = strings.TrimSpace(string(out))
		if exp == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		ld.exports[path] = exp
	}
	return os.Open(exp)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func findModuleRoot(dir string) string {
	dir, _ = filepath.Abs(dir)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

func checkPackage(t *testing.T, fset *token.FileSet, a *analysis.Analyzer, cp *corpusPkg) {
	t.Helper()
	var wants []*expectation
	for _, f := range cp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rxs, err := splitWants(m[1])
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, rx := range rxs {
					re, err := regexp.Compile(rx)
					if err != nil {
						t.Fatalf("%s:%d: bad regexp %q: %v", pos.Filename, pos.Line, rx, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: re})
				}
			}
		}
	}
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     cp.files,
		Pkg:       cp.pkg,
		TypesInfo: cp.info,
		Report: func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			for _, w := range wants {
				if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
					w.hit = true
					return
				}
			}
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		},
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// splitWants breaks `"a" "b c"` into its quoted pieces.
func splitWants(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		q, rest, err := scanQuoted(s)
		if err != nil {
			return nil, err
		}
		u, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("unquoting %s: %v", q, err)
		}
		out = append(out, u)
		s = strings.TrimSpace(rest)
	}
	return out, nil
}

func scanQuoted(s string) (quoted, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			return s[:i+1], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}
