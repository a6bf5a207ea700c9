package hydra_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	hydra "github.com/dsl-repro/hydra"
)

// freeAddr reserves a loopback port for a short-lived test server. The
// listener is closed before use, so there is a tiny reuse window — fine
// for a test that binds again immediately.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// TestServeDrainBounded is the regression for the unbounded drain:
// hydra.Serve must return within DrainTimeout of the stop signal even
// when a client holds a stream open and never finishes reading it —
// previously Shutdown(context.Background()) waited on that client
// forever.
func TestServeDrainBounded(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	addr := freeAddr(t)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() {
		done <- hydra.Serve(ctx, addr, res.Summary, hydra.ServeOptions{
			DrainTimeout: 500 * time.Millisecond,
		})
	}()
	base := "http://" + addr
	waitHealthy(t, base)

	// A stream the client starts and then sits on: at rate=100 the
	// 1500-row table, one chunk, is not due for ~15s, while its csv
	// header goes out at once.
	resp, err := http.Get(base + "/v1/tables/T?format=csv&rate=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, len("T_pk,C\n"))
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("stream head: %v", err)
	}

	t0 := time.Now()
	stop()
	select {
	case err := <-done:
		// The straggler was force-closed at the deadline; Serve reports
		// the bounded drain as DeadlineExceeded rather than pretending
		// the exit was clean.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve returned %v, want context.DeadlineExceeded for a forced drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return within 10s of the stop signal (unbounded drain)")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("drain took %v, want ~DrainTimeout (500ms)", d)
	}
}

// TestServeDrainGraceful is the complementary path: streams that finish
// inside the deadline drain cleanly, new streams during the drain see
// 503 + Retry-After, and Serve returns nil.
func TestServeDrainGraceful(t *testing.T) {
	res := regenerateFigure1(t, hydra.Config{})
	addr := freeAddr(t)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() {
		done <- hydra.Serve(ctx, addr, res.Summary, hydra.ServeOptions{
			DrainTimeout: 10 * time.Second,
		})
	}()
	base := "http://" + addr
	waitHealthy(t, base)

	// An in-flight stream that takes ~1s: 1500 rows at rate=1500, one
	// chunk, released once due; the csv header goes out at once.
	resp, err := http.Get(base + "/v1/tables/T?format=csv&rate=1500")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, len("T_pk,C\n"))
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("stream head: %v", err)
	}
	stop()

	// While draining: healthz says so, and new streams are refused.
	drainSeen := false
	for i := 0; i < 50 && !drainSeen; i++ {
		hr, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener already closed: drain finished
		}
		var doc struct {
			Status string `json:"status"`
		}
		if decodeErr := json.NewDecoder(hr.Body).Decode(&doc); decodeErr == nil && doc.Status == "draining" {
			drainSeen = true
			nr, err := http.Get(base + "/v1/tables/T?format=csv")
			if err == nil {
				if nr.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("new stream during drain: status %d, want 503", nr.StatusCode)
				}
				if nr.Header.Get("Retry-After") == "" {
					t.Error("drain 503 must carry Retry-After")
				}
				nr.Body.Close()
			}
		}
		hr.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !drainSeen {
		t.Log("drain window closed before the probe saw it (stream finished fast); drain refusal covered by serve package tests")
	}

	// The in-flight stream must run to completion — whole body plus the
	// checksum trailer — despite the stop signal.
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("draining server truncated an in-flight stream: %v", err)
	}
	resp.Body.Close()
	if len(head)+len(rest) == 0 {
		t.Fatal("stream body empty")
	}
	if resp.Trailer.Get("X-Hydra-Sha256") == "" {
		t.Fatal("stream finished without its checksum trailer")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful drain returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after streams finished")
	}
}
