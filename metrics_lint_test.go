package hydra_test

import (
	"context"
	"database/sql"
	"net/http/httptest"
	"strings"
	"testing"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/serve"
)

// TestMetricsExpositionConformance drives a workload through every
// instrumented layer — summarize, materialize, serve, remote scan, the
// SQL driver — then lints the full /metrics payload against the
// Prometheus text-format rules. This is the guard that keeps the
// exposition ingestible as instrumentation accretes: any new metric
// with an illegal name, a missing HELP, or a malformed histogram fails
// here, not in the first production scrape.
func TestMetricsExpositionConformance(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})

	if _, err := hydra.Materialize(res.Summary, hydra.MaterializeOptions{
		Dir: t.TempDir(), Format: "csv", Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.NewServer(res.Summary, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	db, err := sql.Open("hydra", "remote://"+ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.QueryContext(context.Background(), "SELECT A FROM S WHERE A BETWEEN 20 AND 59")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		var a int64
		if err := rows.Scan(&a); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	// Scrape the same handler a fleet member mounts at GET /metrics.
	rec := httptest.NewRecorder()
	hydra.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.Bytes()
	if len(body) == 0 {
		t.Fatal("empty /metrics payload")
	}
	if errs := obs.LintExposition(body); len(errs) != 0 {
		for _, err := range errs {
			t.Error(err)
		}
		t.Fatalf("%d exposition violations in /metrics", len(errs))
	}
	// The tracing and build-identity families must be in the scrape.
	text := "\n" + string(body)
	for _, want := range []string{"hydra_build_info", "hydra_trace_spans_total", "hydra_trace_traces_kept_total"} {
		if !strings.Contains(text, "\n"+want) {
			t.Errorf("/metrics lacks the %s family", want)
		}
	}
}
