// Package hydralint is Hydra's static-analysis suite: seven analyzers
// that turn the repo's load-bearing conventions — determinism of the
// regeneration path, allocation-free hot loops, Prometheus naming,
// span lifecycle, context discipline, sentinel-error hygiene, float
// products that round the same on every machine — into compile-time
// checks. The golden-file and conformance tests catch a
// violated invariant after the bytes diverge; hydralint names the
// offending line before the change ships.
//
// Two source annotations tune the suite, both written as directive
// comments on the function declaration:
//
//	//hydra:nondeterministic <why>  — the determinism analyzer skips
//	    this function; for timing/metrics code on the generation path
//	    whose nondeterminism never reaches the output bytes.
//	//hydra:hotpath — opts the function IN to the hotpath analyzer's
//	    allocation-source checks, complementing its AllocsPerRun pin.
//
// Run it through the toolchain:
// `go build -o hydralint ./cmd/hydralint && go vet -vettool=$PWD/hydralint ./...`.
package hydralint

import (
	"strings"

	"github.com/dsl-repro/hydra/internal/analysis"
)

// Suite returns the full analyzer set in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		Hotpath,
		MetricsName,
		SpanEnd,
		CtxFirst,
		ErrCmp,
		FloatFMA,
	}
}

// pkgPath strips the test-variant suffix `go vet` appends to package
// paths ("pkg [pkg.test]") and the _test of an external test package,
// so a package's tests are in the scope of the package they test.
func pkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// pathMatches reports whether the package path equals pat or ends in
// "/"+pat — analyzers configure package scopes by import-path suffix
// so testdata corpora (whose paths are single elements) can stand in
// for the real packages.
func pathMatches(path, pat string) bool {
	path = pkgPath(path)
	return path == pat || strings.HasSuffix(path, "/"+pat)
}

// inScope reports whether path matches any comma-separated pattern.
func inScope(path, patterns string) bool {
	for _, pat := range strings.Split(patterns, ",") {
		if pat = strings.TrimSpace(pat); pat != "" && pathMatches(path, pat) {
			return true
		}
	}
	return false
}
