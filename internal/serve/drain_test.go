package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/obs"
)

// TestDrainMode proves the member-facing drain contract: /healthz flips
// to "draining" (the signal fleet trackers poll), new streams get 503 +
// Retry-After, and EndDrain reverses it.
func TestDrainMode(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(testSummary(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	health := func() string {
		resp, body := get(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d during drain; probes must keep working", resp.StatusCode)
		}
		var doc HealthInfo
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Status
	}

	if got := health(); got != "ok" {
		t.Fatalf("healthz before drain = %q, want ok", got)
	}
	s.BeginDrain()
	s.BeginDrain() // idempotent
	if got := health(); got != "draining" {
		t.Fatalf("healthz during drain = %q, want draining", got)
	}
	resp, body := get(t, ts.URL+"/v1/tables/T?format=csv")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream during drain: status %d, want 503; body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 must carry Retry-After")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hydra_serve_drain_rejected_total 1", "hydra_serve_draining 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	s.EndDrain()
	if got := health(); got != "ok" {
		t.Fatalf("healthz after EndDrain = %q, want ok", got)
	}
	resp, _ = get(t, ts.URL+"/v1/tables/T?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after EndDrain: status %d, want 200", resp.StatusCode)
	}
}

// TestWaitIdle proves the drain wait: it blocks while a stream holds a
// slot, honors its deadline, and returns as soon as the server goes
// idle.
func TestWaitIdle(t *testing.T) {
	s, err := NewServer(testSummary(), Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Idle server: WaitIdle returns immediately.
	if err := s.WaitIdle(context.Background()); err != nil {
		t.Fatalf("WaitIdle on idle server = %v", err)
	}

	// A rate-limited stream stays in flight for ~30s unless canceled:
	// T's 1513 rows are one chunk, not due before then, while its csv
	// header goes out at once.
	resp, err := http.Get(ts.URL + "/v1/tables/T?format=csv&rate=50")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len("T_pk,C\n"))
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := s.WaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitIdle with an in-flight stream = %v, want DeadlineExceeded", err)
	}

	// The client going away cancels generation and frees the slot;
	// WaitIdle then succeeds within the drain deadline.
	resp.Body.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.WaitIdle(ctx2); err != nil {
		t.Fatalf("WaitIdle after the stream ended = %v", err)
	}
}
