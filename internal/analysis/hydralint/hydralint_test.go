package hydralint_test

import (
	"testing"

	"github.com/dsl-repro/hydra/internal/analysis"
	"github.com/dsl-repro/hydra/internal/analysis/analysistest"
	"github.com/dsl-repro/hydra/internal/analysis/hydralint"
)

// setScope points a scoped analyzer's pkgs flag at the corpus package
// for the duration of one test.
func setScope(t *testing.T, a *analysis.Analyzer, pkgs string) {
	t.Helper()
	f := a.Flags.Lookup("pkgs")
	if f == nil {
		t.Fatalf("analyzer %s has no pkgs flag", a.Name)
	}
	old := f.Value.String()
	if err := f.Value.Set(pkgs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Value.Set(old) })
}

func TestDeterminism(t *testing.T) {
	setScope(t, hydralint.Determinism, "determinism")
	analysistest.Run(t, "testdata", hydralint.Determinism, "determinism")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", hydralint.Hotpath, "hotpath")
}

func TestMetricsName(t *testing.T) {
	analysistest.Run(t, "testdata", hydralint.MetricsName, "metricsname")
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, "testdata", hydralint.SpanEnd, "spanend")
}

func TestCtxFirst(t *testing.T) {
	setScope(t, hydralint.CtxFirst, "ctxfirst")
	analysistest.Run(t, "testdata", hydralint.CtxFirst, "ctxfirst")
}

func TestErrCmp(t *testing.T) {
	analysistest.Run(t, "testdata", hydralint.ErrCmp, "errcmp")
}

func TestFloatFMA(t *testing.T) {
	setScope(t, hydralint.FloatFMA, "floatfma")
	analysistest.Run(t, "testdata", hydralint.FloatFMA, "floatfma")
}

func TestSuiteComplete(t *testing.T) {
	suite := hydralint.Suite()
	if len(suite) < 7 {
		t.Fatalf("suite has %d analyzers, want at least 7", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q missing name or doc", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
