package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
)

// TestTableStreamColumns proves the projection pushdown: columns= must
// stream exactly the bytes a local materialization with the same
// Columns writes — projected header included — and info=1 must report
// the projected layout.
func TestTableStreamColumns(t *testing.T) {
	sum := testSummary()
	ts := newTestServer(t, sum, Options{})
	for _, tc := range []struct {
		format string
		cols   string
	}{
		{"csv", "S_pk,A"},
		{"csv", "t_fk,B,S_pk"}, // reordered
		{"jsonl", "A,B"},       // pk-less
		{"heap", "S_pk,t_fk"},
		{"sql", "S_pk,A,B"},
	} {
		t.Run(tc.format+"/"+tc.cols, func(t *testing.T) {
			cols := strings.Split(tc.cols, ",")
			dir := t.TempDir()
			if _, err := matgen.Materialize(sum, matgen.Options{
				Dir: dir, Format: tc.format, Tables: []string{"S"}, Columns: cols, Workers: 2,
			}); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "S"+mustSink(t, tc.format).Ext()))
			if err != nil {
				t.Fatal(err)
			}
			resp, body := get(t, ts.URL+"/v1/tables/S?format="+tc.format+"&columns="+tc.cols)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %s: %s", resp.Status, body)
			}
			if string(body) != string(want) {
				t.Fatalf("projected stream differs from projected materialization (%d vs %d bytes)",
					len(body), len(want))
			}

			resp, body = get(t, ts.URL+"/v1/tables/S?format="+tc.format+"&columns="+tc.cols+"&info=1")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("info status %s", resp.Status)
			}
			var rep matgen.StreamReport
			if err := json.Unmarshal(body, &rep); err != nil {
				t.Fatal(err)
			}
			if strings.Join(rep.Cols, ",") != tc.cols {
				t.Fatalf("info cols = %v, want %s", rep.Cols, tc.cols)
			}
		})
	}
}

func mustSink(t *testing.T, name string) *format.Format {
	t.Helper()
	s, err := format.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTableStreamBadColumns: unknown and duplicate projections are
// client errors, not stream failures.
func TestTableStreamBadColumns(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	for _, q := range []string{"columns=nope", "columns=A,A"} {
		resp, body := get(t, ts.URL+"/v1/tables/S?format=csv&"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s: %s", q, resp.Status, body)
		}
	}
}

// TestRateLimitedStreamDisconnectFreesSlot is the -max-streams
// regression guard: a client that drops a rate-limited stream must free
// its slot promptly — the rate wait observes the request context — so
// the next request is not starved behind a connection nobody is
// reading.
func TestRateLimitedStreamDisconnectFreesSlot(t *testing.T) {
	sum := testSummary()
	// One slot; the paced stream would take ~8208/20 ≈ 410s if the wait
	// ignored the disconnect.
	ts := newTestServer(t, sum, Options{MaxStreams: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/tables/S?format=csv&rate=20", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first chunk so the stream is truly mid-flight, then drop
	// the connection while the server sits in its rate wait.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The slot must come back well before the stream's paced duration.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := get(t, ts.URL+"/v1/tables/T?format=csv")
		if resp.StatusCode == http.StatusOK {
			if len(body) == 0 {
				t.Fatal("empty follow-up stream")
			}
			return
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %s: %s", resp.Status, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot still held 5s after client disconnect — rate wait ignores ctx")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
