package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/summary"
)

// testSummary mirrors the scan package's fixture: two relations, small
// enough to scan in microseconds, so MaxRequests (not Duration) bounds
// the runs below.
func testSummary() *summary.Summary {
	tRel := &summary.RelationSummary{
		Table: "T", Cols: []string{"C"},
		Rows: []summary.RelRow{
			{Vals: []int64{2}, Count: 900},
			{Vals: []int64{7}, Count: 613},
		},
		Total: 1513,
	}
	sRel := &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 3001},
			{Vals: []int64{20, 40}, FKs: []int64{901}, FKSpans: []int64{613}, Count: 2500},
			{Vals: []int64{61, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 2707},
		},
		Total: 8208,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"S": sRel, "T": tRel}}
}

func TestRunAgainstSummarySource(t *testing.T) {
	src := scan.NewSummarySource(testSummary())
	rep, err := Run(context.Background(), Options{
		Source:         src,
		Concurrency:    4,
		Duration:       30 * time.Second, // the request budget ends the run long before this
		RowsPerRequest: 500,
		MaxRequests:    50,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case rep.Requests != 50:
		t.Fatalf("requests %d, want 50", rep.Requests)
	case rep.Errors != 0:
		t.Fatalf("errors %d: %v", rep.Errors, rep.ErrorSamples)
	case rep.Rows <= 0:
		t.Fatalf("rows %d", rep.Rows)
	case rep.RowsPerSec <= 0 || rep.ReqPerSec <= 0:
		t.Fatalf("rates %+v", rep)
	case rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99:
		t.Fatalf("latency not ordered: %+v", rep.Latency)
	case rep.Concurrency != 4:
		t.Fatalf("concurrency %d", rep.Concurrency)
	}
}

func TestRunTableSubsetAndErrors(t *testing.T) {
	src := scan.NewSummarySource(testSummary())
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Fatal("no error without a Source")
	}
	if _, err := Run(context.Background(), Options{Source: src, Tables: []string{"nope"}}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown table error = %v", err)
	}
	rep, err := Run(context.Background(), Options{
		Source: src, Tables: []string{"T"},
		Concurrency: 2, MaxRequests: 8, RowsPerRequest: 100,
		Duration: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 8 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	// Ranges are clamped to T's 1513 rows; 8 requests of <=100 rows each.
	if rep.Rows <= 0 || rep.Rows > 8*100 {
		t.Fatalf("rows %d out of range for 8x100-row requests", rep.Rows)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Options{Source: scan.NewSummarySource(testSummary()), Duration: 30 * time.Second})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if rep == nil {
		t.Fatal("canceled run returned no report")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	var samples []sample
	for i := 1; i <= 1000; i++ {
		samples = append(samples, sample{sec: float64(i), traceID: fmt.Sprintf("t%04d", i), table: "orders"})
	}
	l, slow := summarize(samples)
	if l.P50 != 500 || l.P95 != 950 || l.P99 != 990 || l.P999 != 999 || l.Max != 1000 {
		t.Fatalf("percentiles %+v", l)
	}
	if l.Mean != 500.5 {
		t.Fatalf("mean %v", l.Mean)
	}
	// The tail's handles: the slowest request and the distinct p999 one.
	if len(slow) != 2 || slow[0].Rank != "max" || slow[0].TraceID != "t1000" ||
		slow[1].Rank != "p999" || slow[1].TraceID != "t0999" {
		t.Fatalf("slow traces %+v", slow)
	}
	if got, slow := summarize(nil); got != (Latency{}) || slow != nil {
		t.Fatalf("empty summarize %+v %+v", got, slow)
	}
}

func TestWriteHumanReport(t *testing.T) {
	rep := &Report{
		Backend: "remote", Concurrency: 4, Requests: 100, Rows: 5000,
		ElapsedSec: 2.0, RowsPerSec: 2500, ReqPerSec: 50,
		Errors:           3,
		ErrorsByCategory: map[string]int64{"busy": 2, "truncated": 1},
		ErrorSamples:     []string{"x: unexpected EOF"},
		SlowTraces: []TraceRef{
			{Rank: "max", TraceID: "deadbeef", Seconds: 0.5, Table: "orders"},
		},
	}
	var buf strings.Builder
	rep.WriteHuman(&buf)
	out := buf.String()
	for _, want := range []string{
		"remote backend", "errors      3 (busy 2, truncated 1)",
		"error: x: unexpected EOF", "trace       max", "deadbeef",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("human report missing %q:\n%s", want, out)
		}
	}
}

// TestCategorize: each coarse error class is recognized from the
// shapes the scan backends actually produce (usually wrapped in a
// "fleet exhausted" envelope).
func TestCategorize(t *testing.T) {
	wrap := func(msg string) error {
		return fmt.Errorf("scan: fleet exhausted after 6 attempts, last: %s", msg)
	}
	cases := map[string]struct {
		err  error
		want string
	}{
		"nil":            {nil, ""},
		"spec":           {fmt.Errorf("%w: no such table", scan.ErrSpec), "spec"},
		"deadline":       {context.DeadlineExceeded, "timeout"},
		"unexpected eof": {io.ErrUnexpectedEOF, "truncated"},
		"wrapped tear":   {wrap("http://x: unexpected EOF"), "truncated"},
		"torn frame":     {wrap("bad spans frame after row 500: crc 0badf00d, computed 600dcafe"), "truncated"},
		"torn csv row":   {wrap("csv row has 2 of 3 columns"), "truncated"},
		"corrupt cell":   {wrap(`csv cell 1: parsing "\x00": invalid syntax`), "truncated"},
		"busy 503":       {wrap("http://x answered 503 Service Unavailable: at capacity"), "busy"},
		"refused":        {wrap("http://x: dial tcp: connection refused"), "refused"},
		"reset":          {wrap("http://x: read: connection reset by peer"), "refused"},
		"breakers open":  {wrap("resilience: no fleet member available (all breakers open)"), "refused"},
		"client timeout": {wrap("context deadline exceeded (Client.Timeout)"), "timeout"},
		"something else": {errors.New("disk full"), "other"},
	}
	for name, tc := range cases {
		if got := Categorize(tc.err); got != tc.want {
			t.Errorf("%s: Categorize(%v) = %q, want %q", name, tc.err, got, tc.want)
		}
	}
}

// TestRunReportsErrorCategories: a source that always fails populates
// the per-category breakdown and the totals agree.
func TestRunReportsErrorCategories(t *testing.T) {
	src := failingSource{inner: scan.NewSummarySource(testSummary())}
	rep, err := Run(context.Background(), Options{
		Source: src, Concurrency: 2, MaxRequests: 6,
		RowsPerRequest: 10, Duration: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 6 {
		t.Fatalf("errors %d, want 6", rep.Errors)
	}
	var sum int64
	for _, n := range rep.ErrorsByCategory {
		sum += n
	}
	if sum != rep.Errors {
		t.Fatalf("category counts sum to %d, want %d (%v)", sum, rep.Errors, rep.ErrorsByCategory)
	}
	if rep.ErrorsByCategory["busy"] != 6 {
		t.Fatalf("busy = %d, want 6 (%v)", rep.ErrorsByCategory["busy"], rep.ErrorsByCategory)
	}
}

// failingSource delegates metadata but fails every scan like a
// saturated fleet.
type failingSource struct{ inner scan.Source }

func (f failingSource) Tables() ([]string, error)               { return f.inner.Tables() }
func (f failingSource) Table(n string) (*scan.TableInfo, error) { return f.inner.Table(n) }
func (f failingSource) Close() error                            { return f.inner.Close() }
func (f failingSource) Scan(ctx context.Context, spec scan.Spec) (*scan.Scan, error) {
	return nil, errors.New("http://x answered 503 Service Unavailable: at capacity")
}
