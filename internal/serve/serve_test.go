package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/summary"
)

// testSummary mirrors matgen's fixture: two relations with FK spans,
// small enough for exhaustive golden comparisons, large enough to spread
// across shards and, compressed, across chunks.
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

// newTestServer starts one regeneration server over the fixture.
func newTestServer(t *testing.T, sum *summary.Summary, opts Options) *httptest.Server {
	t.Helper()
	s, err := NewServer(sum, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// fileFormats lists the servable formats (every format that writes
// files).
func fileFormats() []string { return format.FileNames() }

func compressName(c string) string {
	if c == "" {
		return "plain"
	}
	return c
}

// TestTableStreamGolden is the byte-equivalence acceptance: for every
// format, plain and gzip, whole tables and shard pieces, the bytes
// fetched over HTTP are identical to the files a local materialization
// writes — and the SHA-256 trailer matches the body.
func TestTableStreamGolden(t *testing.T) {
	sum := testSummary()
	ts := newTestServer(t, sum, Options{})
	for _, format := range fileFormats() {
		for _, compress := range []string{"", "gzip"} {
			t.Run(format+"/"+compressName(compress), func(t *testing.T) {
				dir := t.TempDir()
				rep, err := matgen.Materialize(sum, matgen.Options{
					Dir: dir, Format: format, Compress: compress, Workers: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range rep.Tables {
					want, err := os.ReadFile(tr.Path)
					if err != nil {
						t.Fatal(err)
					}
					url := fmt.Sprintf("%s/v1/tables/%s?format=%s", ts.URL, tr.Table, format)
					if compress != "" {
						url += "&compress=" + compress
					}
					resp, body := get(t, url)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("%s: fetched %d bytes != materialized %d bytes", tr.Table, len(body), len(want))
					}
					wantSum := sha256.Sum256(body)
					if got := resp.Trailer.Get(TrailerSha256); got != hex.EncodeToString(wantSum[:]) {
						t.Fatalf("%s: trailer %q != body sha256", tr.Table, got)
					}
					if got := resp.Header.Get(HeaderRows); got != fmt.Sprint(tr.Rows) {
						t.Fatalf("%s: rows header %q, want %d", tr.Table, got, tr.Rows)
					}
				}

				// Shard piece 2/3 must equal the corresponding part file.
				dir = t.TempDir()
				if _, err := matgen.Materialize(sum, matgen.Options{
					Dir: dir, Format: format, Compress: compress, Workers: 2, Shards: 3, Shard: 1,
				}); err != nil {
					t.Fatal(err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.HasPrefix(e.Name(), "manifest-") {
						continue
					}
					table, _, _ := strings.Cut(e.Name(), ".")
					want, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					url := fmt.Sprintf("%s/v1/tables/%s?format=%s&shard=2/3", ts.URL, table, format)
					if compress != "" {
						url += "&compress=" + compress
					}
					resp, body := get(t, url)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("%s: fetched shard piece != part file %s", table, e.Name())
					}
				}
			})
		}
	}
}

// TestTableStreamResume: a limited fetch plus a resumed fetch at the
// same offset concatenate to the full fetch, byte-identically — gzip
// included when the cut sits on the advertised chunk grid.
func TestTableStreamResume(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	for _, compress := range []string{"", "gzip"} {
		t.Run(compressName(compress), func(t *testing.T) {
			suffix := ""
			if compress != "" {
				suffix = "&compress=" + compress
			}
			base := ts.URL + "/v1/tables/S?format=csv" + suffix
			resp, full := get(t, base)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s", base, full)
			}
			var info matgen.StreamReport
			_, infoBody := get(t, base+"&info=1")
			if err := json.Unmarshal(infoBody, &info); err != nil {
				t.Fatalf("info: %v (%s)", err, infoBody)
			}
			cut := info.ChunkRows
			if cut >= info.Rows {
				t.Fatalf("fixture too small: %d rows, chunk %d", info.Rows, info.ChunkRows)
			}
			_, head := get(t, fmt.Sprintf("%s&limit=%d", base, cut))
			_, tail := get(t, fmt.Sprintf("%s&offset=%d", base, cut))
			if got := append(head, tail...); !bytes.Equal(got, full) {
				t.Fatalf("limit %d + offset %d != full stream (%d vs %d bytes)", cut, cut, len(got), len(full))
			}
		})
	}
}

// TestTableStreamErrors maps each client mistake to its status code.
func TestTableStreamErrors(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	cases := map[string]struct {
		path string
		code int
	}{
		"unknown table":     {"/v1/tables/nope?format=csv", http.StatusNotFound},
		"unknown format":    {"/v1/tables/S?format=parquet", http.StatusBadRequest},
		"discard format":    {"/v1/tables/S?format=discard", http.StatusBadRequest},
		"bad codec":         {"/v1/tables/S?format=csv&compress=lz77", http.StatusBadRequest},
		"bad shard spec":    {"/v1/tables/S?shard=0/4", http.StatusBadRequest},
		"shard gt width":    {"/v1/tables/S?shard=5/4", http.StatusBadRequest},
		"bad offset":        {"/v1/tables/S?offset=x", http.StatusBadRequest},
		"negative offset":   {"/v1/tables/S?offset=-3", http.StatusBadRequest},
		"misaligned offset": {"/v1/tables/S?format=sql&offset=17", http.StatusBadRequest},
		"bad rate":          {"/v1/tables/S?rate=-2", http.StatusBadRequest},
		"NaN rate":          {"/v1/tables/S?rate=NaN", http.StatusBadRequest},
		"Inf rate":          {"/v1/tables/S?rate=%2BInf", http.StatusBadRequest},
		"denormal rate":     {"/v1/tables/S?rate=1e-300", http.StatusBadRequest},
		"wrong method":      {"/v1/shardjobs", http.StatusMethodNotAllowed},
	}
	for name, tc := range cases {
		resp, body := get(t, ts.URL+tc.path)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: GET %s = %s (%s), want %d", name, tc.path, resp.Status, body, tc.code)
		}
	}
}

// TestTableStreamUnknownParams: the tables endpoint refuses a query
// parameter it does not read, naming the first unknown key in sorted
// order, rather than streaming as if it were absent — and accepts every
// one it does read.
func TestTableStreamUnknownParams(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	for query, unknown := range map[string]string{
		"format=csv&fkspread=1":          "fkspread",
		"format=csv&colums=S_pk,A":       "colums",
		"zz=1&format=csv&aa=2&limit=10":  "aa",
		"format=spans&info=1&Format=csv": "Format",
		"format=csv&batch=128":           "batch",
	} {
		resp, body := get(t, ts.URL+"/v1/tables/S?"+query)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprintf("%q", unknown)) {
			t.Errorf("GET ?%s = %s (%s), want 400 naming %q", query, resp.Status, body, unknown)
		}
	}
	known := "format=csv&compress=gzip&columns=S_pk,A&filter=A%3D20&shard=1/1&offset=0&limit=10&rate=100000&info=1"
	if resp, body := get(t, ts.URL+"/v1/tables/S?"+known); resp.StatusCode != http.StatusOK {
		t.Errorf("GET ?%s = %s (%s), want 200", known, resp.Status, body)
	}
}

// TestShardJobUnknownFields: a shard job body with a field the server
// does not read, such as a chunk grid it does not take, is a 400 naming
// it, and the same body without it runs.
func TestShardJobUnknownFields(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	for body, want := range map[string]int{
		`{"format":"csv","shards":1,"shard":0,"tables":["T"],"batch_rows":128}`: http.StatusBadRequest,
		`{"format":"csv","shards":1,"shard":0,"tables":["T"]}`:                  http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v1/shardjobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want || want != http.StatusOK && !strings.Contains(string(got), `"batch_rows"`) {
			t.Errorf("POST %s = %s (%.80q), want %d", body, resp.Status, got, want)
		}
	}
}

// TestTableStreamShardOfHugeN: split into 2^62 pieces, the 8 208-row S
// is almost all empty pieces. The first holds no row (only the csv
// header shard 0 writes), and the last exactly the table's last row —
// not, as a 64-bit product of rows and piece index once made it, every
// row. Shards split on the chunk grid, 8 192 rows for csv, so the last
// piece is exactly rows [8192, 8208): the start point nearest ⌊8208·i/n⌋
// rounds up to the grid. Where an int is 32 bits the shard parser cannot
// hold 2^62, and every such request is refused with a 400: a refusal,
// not a wrapped split.
func TestTableStreamShardOfHugeN(t *testing.T) {
	ts := newTestServer(t, testSummary(), Options{})
	const n = "4611686018427387904" // 2^62
	var last strings.Builder
	for pk := 8193; pk <= 8208; pk++ {
		fmt.Fprintf(&last, "%d,61,15,1\n", pk)
	}
	for shard, want := range map[string]string{
		"1/" + n:    "S_pk,A,B,t_fk\n",
		"2/" + n:    "",
		n + "/" + n: last.String(),
	} {
		resp, body := get(t, ts.URL+"/v1/tables/S?format=csv&shard="+shard)
		if strconv.IntSize == 32 {
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("shard=%s with a 32-bit int: %s (%.60q), want 400", shard, resp.Status, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard=%s: %s (%s)", shard, resp.Status, body)
		}
		if string(body) != want {
			t.Errorf("shard=%s: got %d bytes %.60q, want %q", shard, len(body), body, want)
		}
	}
}

// TestTableStreamFilter: filter= restricts the stream to matching rows
// and is echoed canonically; unusable filters answer 400 with a JSON
// error body and bump the rejection counter.
func TestTableStreamFilter(t *testing.T) {
	reg := obs.NewRegistry()
	ts := newTestServer(t, testSummary(), Options{Metrics: reg})

	// A=20 matches the first two run groups: rows 1..5501 of 8208.
	resp, body := get(t, ts.URL+"/v1/tables/S?format=csv&filter=A%3D20%3A20")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered stream: %s (%s)", resp.Status, body)
	}
	if got := resp.Header.Get(HeaderFilter); got != "A=20" {
		t.Fatalf("filter echo = %q, want canonical %q", got, "A=20")
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if got := len(lines) - 1; got != 5501 { // minus header line
		t.Fatalf("filtered stream has %d rows, want 5501", got)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",20,") {
			t.Fatalf("non-matching row in filtered stream: %q", line)
		}
	}

	rejections := map[string]string{
		"malformed":      "/v1/tables/S?format=csv&filter=A%3Dgarbage",
		"unknown column": "/v1/tables/S?format=csv&filter=Z%3D1",
		"aligned format": "/v1/tables/S?format=sql&filter=A%3D20",
	}
	for name, path := range rejections {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: GET %s = %s, want 400", name, path, resp.Status)
			continue
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", name, body)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if want := fmt.Sprintf("hydra_serve_filter_rejected_total %d", len(rejections)); !strings.Contains(string(metrics), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestSummaryAndHealth: the fleet-management endpoints describe the
// loaded summary and its digest.
func TestSummaryAndHealth(t *testing.T) {
	sum := testSummary()
	ts := newTestServer(t, sum, Options{MaxStreams: 7, RateLimit: 123})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s %q", resp.Status, body)
	}
	var health HealthInfo
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz is not JSON: %v (%q)", err, body)
	}
	wantDigest, err := SummaryDigest(sum)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case health.Status != "ok":
		t.Fatalf("healthz status %q", health.Status)
	case health.Version == "":
		t.Fatal("healthz reports no version")
	case health.SummaryDigest != wantDigest:
		t.Fatalf("healthz digest %q, want %q", health.SummaryDigest, wantDigest)
	case health.UptimeSeconds < 0:
		t.Fatalf("healthz uptime %v", health.UptimeSeconds)
	case health.InFlight != 0:
		t.Fatalf("healthz in-flight %d on an idle server", health.InFlight)
	case health.MaxStreams != 7:
		t.Fatalf("healthz max streams %d, want 7", health.MaxStreams)
	case health.Relations != 2 || health.TotalRows != 9721:
		t.Fatalf("healthz shape = %+v", health)
	}
	var info SummaryInfo
	resp, body = get(t, ts.URL+"/v1/summary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	digest, err := SummaryDigest(sum)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest {
		t.Fatalf("digest %q, want %q", info.Digest, digest)
	}
	if info.Relations["S"] != 8208 || info.Relations["T"] != 1513 || info.TotalRows != 9721 {
		t.Fatalf("relations = %+v", info)
	}
	if info.MaxStreams != 7 || info.RateLimit != 123 {
		t.Fatalf("limits = %+v", info)
	}
	for _, f := range info.Formats {
		if f == "discard" {
			t.Fatal("discard advertised as servable")
		}
	}
}

// TestMaxStreams: the MaxStreams-th+1 concurrent stream is refused with
// 503 + Retry-After while a slow stream holds the only slot — and the
// in-flight gauge tracks the slot's whole life cycle, including the
// decrement when the client drops the connection mid-stream (the
// regression that would otherwise leak both the gauge and the slot).
func TestMaxStreams(t *testing.T) {
	reg := obs.NewRegistry()
	ts := newTestServer(t, testSummary(), Options{MaxStreams: 1, Metrics: reg})
	inFlight := reg.Gauge("hydra_serve_in_flight_streams", "")
	busy := reg.Counter("hydra_serve_busy_total", "")
	if got := inFlight.Value(); got != 0 {
		t.Fatalf("in-flight %d before any stream", got)
	}
	// rate=500 holds the slot ~16s: S's first 8 192-row chunk is not
	// due before then, while its csv header goes out at once.
	slow, err := http.Get(ts.URL + "/v1/tables/S?format=csv&rate=500")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Body.Close()
	if slow.StatusCode != http.StatusOK {
		t.Fatalf("slow stream: %s", slow.Status)
	}
	if _, err := io.ReadFull(slow.Body, make([]byte, len("S_pk,A,B,t_fk\n"))); err != nil {
		t.Fatal(err) // the stream is live and holding its slot
	}
	if got := inFlight.Value(); got != 1 {
		t.Fatalf("in-flight %d with one live stream, want 1", got)
	}
	resp, body := get(t, ts.URL+"/v1/tables/T?format=csv")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: %s (%s), want 503", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if busy.Value() == 0 {
		t.Fatal("503 did not count into hydra_serve_busy_total")
	}
	// info=1 requests never consume a slot.
	if resp, _ := get(t, ts.URL+"/v1/tables/T?format=csv&info=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("info during saturation: %s", resp.Status)
	}
	// Dropping the slow stream frees the slot again.
	slow.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/v1/tables/T?format=csv")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never released after client disconnect")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The dropped stream's slot release must have decremented the gauge
	// too; the successful re-scan above has also completed, so the gauge
	// is back to zero, not drifting upward one dead connection at a time.
	deadline = time.Now().Add(5 * time.Second)
	for inFlight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d after all streams ended", inFlight.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsEndpoint: the server exposes its registry at GET /metrics
// in Prometheus text format, and a completed stream shows up in the
// serve-side families.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	ts := newTestServer(t, testSummary(), Options{MaxStreams: 3, Metrics: reg})
	if resp, body := get(t, ts.URL+"/v1/tables/T?format=csv"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s (%s)", resp.Status, body)
	}
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`hydra_serve_requests_total{route="tables"} 1`,
		`hydra_serve_requests_total{route="metrics"} 1`,
		"# TYPE hydra_serve_stream_seconds histogram",
		`hydra_serve_stream_seconds_bucket{le="+Inf"} 1`,
		"hydra_serve_in_flight_streams 0",
		"# TYPE hydra_serve_ttfc_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestTableStreamRateLimit: a client-requested rate paces the stream
// within ±10%, and the server-side cap binds clients that ask for more.
func TestTableStreamRateLimit(t *testing.T) {
	sum := testSummary()
	timedGet := func(ts *httptest.Server, url string) (rowsPerSec float64) {
		t.Helper()
		start := time.Now()
		resp, body := get(t, ts.URL+url)
		elapsed := time.Since(start).Seconds()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s (%s)", url, resp.Status, body)
		}
		rows := int64(bytes.Count(body, []byte("\n")))
		return float64(rows) / elapsed
	}
	t.Run("client requested", func(t *testing.T) {
		ts := newTestServer(t, sum, Options{})
		// T's 1513 rows are one chunk, released once its emission time
		// (~1.5s) has all but the limiter's 50ms tolerance elapsed.
		const perSec = 1000.0
		got := timedGet(ts, "/v1/tables/T?format=csv&rate=1000")
		if got < perSec*0.9 || got > perSec*1.1 {
			t.Fatalf("observed %.0f rows/s, requested %.0f (±10%%)", got, perSec)
		}
	})
	t.Run("server cap", func(t *testing.T) {
		ts := newTestServer(t, sum, Options{RateLimit: 1000})
		got := timedGet(ts, "/v1/tables/T?format=csv&rate=1000000")
		if got > 1000*1.1 {
			t.Fatalf("observed %.0f rows/s past the 1000 cap", got)
		}
	})
}

// lockedBuffer is a log destination the test may read while the server
// writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamLog: one logger takes the server's records, and its level
// picks which appear. A completed stream is an Info record, which a
// Warn-level handler drops; a stream its client abandons mid-way is an
// Error record, which it keeps.
func TestStreamLog(t *testing.T) {
	var out lockedBuffer
	logger := slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn}))
	ts := newTestServer(t, testSummary(), Options{Logger: logger})
	if resp, body := get(t, ts.URL+"/v1/tables/T?format=csv"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s (%s)", resp.Status, body)
	}
	if got := out.String(); got != "" {
		t.Fatalf("a Warn-level log took a completed stream's record: %q", got)
	}
	slow, err := http.Get(ts.URL + "/v1/tables/S?format=csv&rate=500")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(slow.Body, make([]byte, len("S_pk,A,B,t_fk\n"))); err != nil {
		t.Fatal(err)
	}
	slow.Body.Close()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(out.String(), "stream aborted"); {
		if time.Now().After(deadline) {
			t.Fatalf("no record of the abandoned stream: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := out.String(); !strings.Contains(got, "level=ERROR") || !strings.Contains(got, "table=S") {
		t.Fatalf("abandoned stream's record = %q, want an ERROR naming table S", got)
	}
}
