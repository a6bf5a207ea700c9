package serve

import (
	"archive/tar"
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/orchestrate"
	"github.com/dsl-repro/hydra/internal/resilience"
)

// newFleet starts n regeneration servers over the fixture summary and
// returns their URLs.
func newFleet(t *testing.T, n int, opts Options) []string {
	t.Helper()
	sum := testSummary()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newTestServer(t, sum, opts).URL
	}
	return urls
}

func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "manifest-") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestNewRemoteRunnerValidation rejects unusable fleets.
func TestNewRemoteRunnerValidation(t *testing.T) {
	for name, servers := range map[string][]string{
		"empty fleet": {},
		"no scheme":   {"10.0.0.7:8372"},
		"bad scheme":  {"ftp://host"},
		"no host":     {"http://"},
	} {
		if _, err := NewRemoteRunner(servers, RunnerOptions{}); err == nil {
			t.Errorf("%s: expected error for %v", name, servers)
		}
	}
	r, err := NewRemoteRunner([]string{" http://a:1/ ", "https://b"}, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Servers(); got[0] != "http://a:1" || got[1] != "https://b" {
		t.Fatalf("servers = %v", got)
	}
}

// TestRemoteOrchestrateGolden is the acceptance criterion: orchestrate
// over a remote fleet produces shard files byte-identical to the
// in-process pool, plain and gzip, and VerifyShards passes on the
// fetched directory.
func TestRemoteOrchestrateGolden(t *testing.T) {
	sum := testSummary()
	fleet := newFleet(t, 2, Options{})
	for _, format := range fileFormats() {
		for _, compress := range []string{"", "gzip"} {
			t.Run(format+"/"+compressName(compress), func(t *testing.T) {
				runner, err := NewRemoteRunner(fleet, RunnerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				remote := t.TempDir()
				res, err := orchestrate.Run(context.Background(), sum, orchestrate.Options{
					Dir: remote, Format: format, Compress: compress, Shards: 3,
					Runner: runner,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Verification == nil || res.Verification.Shards != 3 {
					t.Fatalf("verification = %+v", res.Verification)
				}
				local := t.TempDir()
				if _, err := orchestrate.Run(context.Background(), sum, orchestrate.Options{
					Dir: local, Format: format, Compress: compress, Shards: 3,
				}); err != nil {
					t.Fatal(err)
				}
				want := readDirFiles(t, local)
				got := readDirFiles(t, remote)
				if len(got) != len(want) {
					t.Fatalf("remote dir holds %d data files, local %d", len(got), len(want))
				}
				for name, w := range want {
					if !bytes.Equal(got[name], w) {
						t.Fatalf("%s: remote bytes != in-process bytes", name)
					}
				}
				// The shipped artifacts re-verify standalone, like any
				// collected directory.
				if _, err := orchestrate.Verify(orchestrate.VerifyOptions{Dir: remote, Summary: sum}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// breakerServer simulates fleet failure modes around a payload captured
// from a healthy server: hard 500s, and mid-stream cuts that truncate
// the tar bundle after a poisoned extra entry.
type breakerServer struct {
	mode string // "error" | "cut"
	hits atomic.Int64
}

func (b *breakerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.hits.Add(1)
	switch b.mode {
	case "error":
		http.Error(w, "simulated shard failure", http.StatusInternalServerError)
	case "cut":
		// A valid tar prologue with one full (bogus) entry, then a torn
		// second entry: the client must notice the missing manifest,
		// remove everything this attempt wrote, and fail over.
		w.Header().Set("Content-Type", "application/x-tar")
		tw := tar.NewWriter(w)
		tw.WriteHeader(&tar.Header{Name: "poison.csv", Mode: 0o644, Size: 9, ModTime: time.Unix(0, 0)})
		tw.Write([]byte("bad,data\n"))
		tw.Flush()
		tw.WriteHeader(&tar.Header{Name: "S.csv.part-000-of-002", Mode: 0o644, Size: 1 << 20, ModTime: time.Unix(0, 0)})
		tw.Write(bytes.Repeat([]byte("torn\n"), 64)) // far short of the declared size
		// Return without closing the tar stream: unexpected EOF client-side.
	}
}

// TestRemoteRunnerFailover: with a failing server in the rotation, jobs
// land on the healthy one, poisoned partial artifacts are removed, and
// the final directory verifies.
func TestRemoteRunnerFailover(t *testing.T) {
	sum := testSummary()
	for _, mode := range []string{"error", "cut"} {
		t.Run(mode, func(t *testing.T) {
			breaker := &breakerServer{mode: mode}
			bad := httptest.NewServer(breaker)
			t.Cleanup(bad.Close)
			healthy := newTestServer(t, sum, Options{})
			runner, err := NewRemoteRunner([]string{bad.URL, healthy.URL}, RunnerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			res, err := orchestrate.Run(context.Background(), sum, orchestrate.Options{
				Dir: dir, Format: "csv", Compress: "gzip", Shards: 2,
				Runner: runner,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range res.Shards {
				if sr.Err != nil {
					t.Fatalf("shard %d failed: %v", sr.Shard, sr.Err)
				}
			}
			if breaker.hits.Load() == 0 {
				t.Fatal("failing server never tried; failover untested")
			}
			if _, err := os.Stat(filepath.Join(dir, "poison.csv")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("poisoned partial artifact survived failover: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "S.csv.part-000-of-002")); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("torn partial artifact survived failover")
			}
			if _, err := orchestrate.Verify(orchestrate.VerifyOptions{Dir: dir, Summary: sum}); err != nil {
				t.Fatalf("post-failover verification: %v", err)
			}
		})
	}
}

// TestRemoteRunnerStallTimeout: a stalling server is cut off by the
// injected HTTP client's timeout and the job fails over.
func TestRemoteRunnerStallTimeout(t *testing.T) {
	sum := testSummary()
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall; the client's timeout is what ends the attempt
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(release) }) // LIFO: unblock handlers before Close
	healthy := newTestServer(t, sum, Options{})
	runner, err := NewRemoteRunner([]string{stall.URL, healthy.URL}, RunnerOptions{
		Client: &http.Client{Timeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	start := time.Now()
	res, err := orchestrate.Run(context.Background(), sum, orchestrate.Options{
		Dir: dir, Format: "jsonl", Shards: 2, Runner: runner, Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("stalling server was never timed out")
	}
	for _, sr := range res.Shards {
		if sr.Err != nil {
			t.Fatalf("shard %d: %v", sr.Shard, sr.Err)
		}
	}
}

// TestRemoteRunnerBusyWait: a 503 capacity rejection is not a failure —
// the runner honors Retry-After and re-enters the rotation without
// burning a failover attempt, so a busy-but-healthy fleet completes the
// job.
func TestRemoteRunnerBusyWait(t *testing.T) {
	sum := testSummary()
	real, err := NewServer(sum, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	busyTwice := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			// Background fleet probes are infrastructure traffic, not
			// job attempts — keep them out of the hit count.
			real.ServeHTTP(w, r)
			return
		}
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "at capacity", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(busyTwice.Close)
	// Attempts: 1 — the two 503s must not count against it.
	runner, err := NewRemoteRunner([]string{busyTwice.URL}, RunnerOptions{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := runner.Run(context.Background(), sum, orchestrate.ShardJob{Opts: matgen.Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3 (2 busy + 1 success)", got)
	}
	if waited := time.Since(start); waited < 2*time.Second {
		t.Fatalf("job completed in %v; Retry-After was not honored", waited)
	}
	if rep.Rows != 9721 {
		t.Fatalf("rows = %d", rep.Rows)
	}

	// A permanently saturated fleet still fails once the busy budget is
	// spent, instead of waiting forever.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Retry-After", "0") // floor-clamped to 100ms
		http.Error(w, "at capacity", http.StatusServiceUnavailable)
	}))
	t.Cleanup(always.Close)
	saturated, err := NewRemoteRunner([]string{always.URL}, RunnerOptions{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := saturated.Run(context.Background(), sum, orchestrate.ShardJob{Opts: matgen.Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
	}}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want saturation failure", err)
	}
}

// TestRemoteRunnerDigestGuard: a server loaded with a different summary
// refuses the job with 409, naming its own digest.
func TestRemoteRunnerDigestGuard(t *testing.T) {
	jobSum := testSummary()
	otherSum := testSummary()
	otherSum.Relations["S"].Rows[0].Count += 7
	otherSum.Relations["S"].Total += 7
	stale := newTestServer(t, otherSum, Options{})

	runner, err := NewRemoteRunner([]string{stale.URL}, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job := orchestrate.ShardJob{Opts: matgen.Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
	}}
	_, err = runner.Run(context.Background(), jobSum, job)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("err = %v, want digest mismatch", err)
	}
}

// TestRemoteRunnerCancellation: a canceled context stops the failover
// loop instead of marching through the remaining fleet.
func TestRemoteRunnerCancellation(t *testing.T) {
	var hits atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		hits.Add(1)
		cancel()
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)
	runner, err := NewRemoteRunner([]string{failing.URL, failing.URL, failing.URL}, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runner.Run(ctx, testSummary(), orchestrate.ShardJob{Opts: matgen.Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
	}})
	if err == nil {
		t.Fatal("expected failure")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("fleet tried %d times after cancellation, want 1", got)
	}
}

// TestShardJobReportFromManifest: the report a remote run returns is
// rebuilt from the manifest with paths pointing at the local copies.
func TestShardJobReportFromManifest(t *testing.T) {
	sum := testSummary()
	ts := newTestServer(t, sum, Options{})
	runner, err := NewRemoteRunner([]string{ts.URL}, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := runner.Run(context.Background(), sum, orchestrate.ShardJob{
		Shard: 1,
		Opts: matgen.Options{
			Dir: dir, Format: "csv", Compress: "gzip", Shards: 3, Shard: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard != 1 || rep.Shards != 3 || rep.Format != "csv" || rep.Compression != "gzip" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ManifestPath != matgen.ManifestPath(dir, 1, 3) {
		t.Fatalf("manifest path = %q", rep.ManifestPath)
	}
	if rep.RawBytes <= rep.Bytes {
		t.Fatalf("raw bytes %d vs bytes %d: raw accounting lost in transit", rep.RawBytes, rep.Bytes)
	}
	for _, tr := range rep.Tables {
		if filepath.Dir(tr.Path) != dir {
			t.Fatalf("table path %q not rewritten to local dir", tr.Path)
		}
		if _, err := os.Stat(tr.Path); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

// TestRemoteRunnerBreakerReadmission: consecutive real failures open a
// member's breaker; once the member recovers, a health probe re-admits
// it and jobs flow again — the half-open cycle end to end, through the
// runner rather than the breaker's own API.
func TestRemoteRunnerBreakerReadmission(t *testing.T) {
	sum := testSummary()
	real, err := NewServer(sum, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && r.URL.Path != "/healthz" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if failing.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	runner, err := NewRemoteRunner([]string{flaky.URL}, RunnerOptions{
		Attempts: 3,
		Fleet: resilience.Options{
			BreakerThreshold: 2,
			BreakerCooldown:  150 * time.Millisecond,
			ProbeInterval:    50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	job := orchestrate.ShardJob{Opts: matgen.Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
	}}

	// Enough failures to trip the threshold-2 breaker.
	if _, err := runner.Run(context.Background(), sum, job); err == nil {
		t.Fatal("run against a failing member succeeded")
	}
	m := runner.Tracker().Members()[0]
	deadline := time.Now().Add(2 * time.Second)
	for m.State() != resilience.MemberOpen && time.Now().Before(deadline) {
		if _, err := runner.Run(context.Background(), sum, job); err == nil {
			t.Fatal("run against a failing member succeeded")
		}
	}
	if m.State() != resilience.MemberOpen {
		t.Fatal("breaker never opened on consecutive failures")
	}

	// Member recovers; within cooldown + one probe interval the breaker
	// re-admits it and a job succeeds.
	failing.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		job := orchestrate.ShardJob{Opts: matgen.Options{
			Dir: t.TempDir(), Format: "csv", Shards: 1,
		}}
		rep, err := runner.Run(context.Background(), sum, job)
		if err == nil {
			if rep.Rows != 9721 {
				t.Fatalf("recovered run rows = %d", rep.Rows)
			}
			if m.State() != resilience.MemberHealthy {
				t.Fatalf("member state after recovery = %v, want healthy", m.State())
			}
			return
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("member was never re-admitted after recovery; last error: %v", lastErr)
}

// TestCheckBundle: a fetched bundle is accepted only when its manifest
// names the job's summary and every part's checksum matches the bytes
// fetched — a blank checksum included, which vouches for nothing.
func TestCheckBundle(t *testing.T) {
	sum := testSummary()
	digest, err := sum.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := matgen.Materialize(sum, matgen.Options{Dir: dir, Format: "csv", Shards: 2, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	manifestName := filepath.Base(rep.ManifestPath)
	files := map[string]fileState{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		c := matgen.NewChecksum()
		c.Write(b)
		files[e.Name()] = fileState{size: int64(len(b)), sum: c.Sum()}
	}
	req := &ShardJobRequest{Format: "csv", Shards: 2, Shard: 1, SummaryDigest: digest}
	check := func(mutate func(*matgen.Manifest)) error {
		m, err := matgen.ReadManifest(rep.ManifestPath)
		if err != nil {
			t.Fatal(err)
		}
		mutate(m)
		return checkBundle(m, req, files, manifestName)
	}
	if err := check(func(*matgen.Manifest) {}); err != nil {
		t.Fatalf("intact bundle refused: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(*matgen.Manifest)
		says   string
	}{
		"another summary": {func(m *matgen.Manifest) { m.SummaryDigest = strings.Repeat("0", len(digest)) }, "names summary"},
		"other checksum":  {func(m *matgen.Manifest) { m.Tables[0].Checksum = strings.Repeat("0", len(digest)) }, "checksum"},
		"blank checksum":  {func(m *matgen.Manifest) { m.Tables[0].Checksum = "" }, "checksum"},
	} {
		if err := check(tc.mutate); err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: err = %v, want one naming the %s", name, err, tc.says)
		}
	}
}
