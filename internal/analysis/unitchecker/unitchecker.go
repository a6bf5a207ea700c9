// Package unitchecker implements the `go vet -vettool` protocol for
// Hydra's analysis framework: the go command invokes the tool once
// per compilation unit with a JSON config file describing the
// package's sources and the export data of everything it imports,
// plus the -V=full and -flags handshakes it uses for build caching
// and flag validation. It is hydralint's one driver:
//
//	go vet -vettool=$(which hydralint) ./...
//
// with the toolchain handling package loading, caching, and test
// variants (in-package _test.go files and external _test packages).
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/dsl-repro/hydra/internal/analysis"
)

// Config mirrors the JSON the go command writes for each vet unit.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// IsVetRun reports whether the arguments look like a go vet
// invocation: a single positional argument ending in .cfg.
func IsVetRun(args []string) bool {
	return len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg")
}

// PrintVersion answers the -V=full handshake. The go command parses
// `<name> version <id>` and folds the id into its action cache key,
// so the id must change when the analyzers do: hash the executable.
func PrintVersion(w io.Writer) {
	name := "hydralint"
	if len(os.Args) > 0 {
		name = filepath.Base(os.Args[0])
	}
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("h%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Fprintf(w, "%s version %s\n", name, id)
}

// PrintFlags answers the -flags handshake: a JSON array describing
// the tool's flags so the go command can split `go vet` arguments
// into flags and package patterns.
func PrintFlags(w io.Writer, analyzers []*analysis.Analyzer) {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	flags := []jsonFlag{}
	for _, a := range analyzers {
		prefix := a.Name
		a.Flags.VisitAll(func(f *flag.Flag) {
			isBool := false
			if bv, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
				isBool = bv.IsBoolFlag()
			}
			flags = append(flags, jsonFlag{Name: prefix + "." + f.Name, Bool: isBool, Usage: f.Usage})
		})
	}
	data, _ := json.Marshal(flags)
	fmt.Fprintln(w, string(data))
}

// Run executes one vet unit: parse the cfg, type-check the unit from
// its sources against the export data the go command already built,
// run every analyzer, and print findings. It returns the number of
// findings; the caller turns that into the exit code. The (possibly
// empty) facts output file is always written — the go command records
// it as the unit's build output.
func Run(cfgPath string, analyzers []*analysis.Analyzer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return 0, fmt.Errorf("parse %s: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("hydralint has no facts\n"), 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if actual, ok := cfg.ImportMap[path]; ok {
			path = actual
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, info, err := analysis.TypeCheck(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}

	count := 0
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				count++
				pos := fset.Position(d.Pos)
				fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", pos, d.Message, a.Name)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return count, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	return count, nil
}
