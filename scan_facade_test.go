package hydra_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	hydra "github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/workload/tpcds"
)

// startFleetMember serves the summary on a loopback server and returns
// its base URL.
func startFleetMember(t *testing.T, sum *hydra.Summary) string {
	t.Helper()
	h, err := hydra.NewServeHandler(sum, hydra.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestScanFacadeThreeBackends drives the facade end to end on the
// Figure 1 scenario: summary, materialized directory, and a served
// fleet must encode the identical bytes for the same ScanSpec — the
// public face of the conformance contract.
func TestScanFacadeThreeBackends(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})

	dir := t.TempDir()
	if _, err := hydra.Materialize(res.Summary, hydra.MaterializeOptions{
		Dir: dir, Format: "csv", Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	ds, err := hydra.OpenDirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	fleetURL := startFleetMember(t, res.Summary)
	rs, err := hydra.NewRemoteSource([]string{fleetURL}, hydra.RemoteSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	spec := hydra.ScanSpec{Table: "R", Columns: []string{"R_pk", "S_fk"}, StartPK: 500, EndPK: 60000, BatchRows: 4096}
	encode := func(src hydra.Source) []byte {
		t.Helper()
		sc, err := src.Scan(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var buf bytes.Buffer
		if _, err := hydra.EncodeScan(&buf, sc, "csv"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(hydra.NewSummarySource(res.Summary))
	if got := encode(ds); !bytes.Equal(got, want) {
		t.Fatalf("dir scan differs from summary scan (%d vs %d bytes)", len(got), len(want))
	}
	if got := encode(rs); !bytes.Equal(got, want) {
		t.Fatalf("remote scan differs from summary scan (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRegenerateContextCancel: an already-canceled context aborts the
// pipeline with the context's error.
func TestRegenerateContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := hydra.RegenerateContext(ctx, figure1Schema(t), figure1Workload(), hydra.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelAfterFirstView is a context that is cancelled by the first Err
// poll after one has returned nil. Views are taken after a poll, so
// exactly one view starts before the cancellation.
type cancelAfterFirstView struct {
	context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	passed int // polls that returned nil
}

func (c *cancelAfterFirstView) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.passed > 0 {
		c.cancel()
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	c.passed++
	return nil
}

// TestRegenerateCancelledMidSolve: a context cancelled once the first view
// has started aborts the concurrent solve with the context's error, no
// view after it is taken, and every worker has exited when
// RegenerateContext returns.
func TestRegenerateCancelledMidSolve(t *testing.T) {
	cfg := tpcds.Config{SF: 0.02, Seed: 5}
	s := tpcds.Schema(cfg)
	db, err := tpcds.GenerateDB(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := engine.WorkloadFromQueries(db, s, "wl", tpcds.QueriesComplex(s, cfg, 12))
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfterFirstView{Context: parent, cancel: cancel}
	if _, err := hydra.RegenerateContext(ctx, s, w, hydra.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.passed != 1 {
		t.Fatalf("%d of %d views started, want 1", ctx.passed, len(s.Tables))
	}
	// A worker that has signalled its WaitGroup may not have exited yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RegenerateContext returned, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestRegenerateStrictReportsFirstFailingView: with two views infeasible,
// the error names the first of them in topological order at any worker
// count, although the later one has more CCs and so is dispatched first.
func TestRegenerateStrictReportsFirstFailingView(t *testing.T) {
	w := figure1Workload()
	for i, c := range w.CCs {
		switch c.Name {
		case "selS": // 800 of S's 700 rows
			w.CCs[i].Count = 800
		case "joinRS": // 90 000 of R's 80 000 rows
			w.CCs[i].Count = 90_000
		}
	}
	for call := 0; call < 8; call++ {
		_, err := hydra.Regenerate(figure1Schema(t), w, hydra.Config{Strict: true})
		if err == nil || !strings.Contains(err.Error(), "view S:") || strings.Contains(err.Error(), "view R:") {
			t.Fatalf("call %d: err = %v, want view S's infeasibility (S precedes R)", call, err)
		}
	}
}

// TestRegenerateWrapperUnchanged: the wrapper still produces a full
// result (the compatibility contract for existing callers).
func TestRegenerateWrapperUnchanged(t *testing.T) {
	res, err := hydra.Regenerate(figure1Schema(t), figure1Workload(), hydra.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || len(res.Summary.Relations) != 3 {
		t.Fatalf("summary = %+v", res.Summary)
	}
}
