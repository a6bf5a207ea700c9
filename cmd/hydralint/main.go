// Command hydralint runs Hydra's static-analysis suite — the seven
// analyzers in internal/analysis/hydralint that enforce the repo's
// determinism, hot-path, observability, span-lifecycle, context,
// sentinel-error and float-rounding invariants.
//
// It is a vet tool: the go command loads every package, test files
// and external test packages included, and hands hydralint one
// compilation unit at a time (the -V/-flags/.cfg protocol):
//
//	go build -o hydralint ./cmd/hydralint
//	go vet -vettool=$PWD/hydralint ./...
//
// Analyzer flags are spelled -<analyzer>.<flag>, for example
// `go vet -vettool=$PWD/hydralint -floatfma.pkgs=internal/lp ./...`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dsl-repro/hydra/internal/analysis/hydralint"
	"github.com/dsl-repro/hydra/internal/analysis/unitchecker"
)

func main() {
	os.Exit(run())
}

func run() int {
	analyzers := hydralint.Suite()

	fs := flag.NewFlagSet("hydralint", flag.ExitOnError)
	version := fs.String("V", "", "version handshake for the go command (go vet -vettool)")
	flagsHandshake := fs.Bool("flags", false, "print flag descriptions as JSON (go vet handshake)")
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$PWD/hydralint [flags] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if *version != "" {
		unitchecker.PrintVersion(os.Stdout)
		return 0
	}
	if *flagsHandshake {
		unitchecker.PrintFlags(os.Stdout, analyzers)
		return 0
	}
	args := fs.Args()
	if !unitchecker.IsVetRun(args) {
		fs.Usage()
		return 2
	}
	n, err := unitchecker.Run(args[len(args)-1], analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
		return 1
	}
	if n > 0 {
		return 2
	}
	return 0
}
