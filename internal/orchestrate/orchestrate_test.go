package orchestrate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/summary"
)

// testSummary mirrors matgen's test fixture: two relations with FK
// spans, sized to spread across several shards at small batch sizes.
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

// TestRunEndToEnd is the acceptance path: a 4-shard gzip job must pass
// verification, and the decompressed concatenation of its parts must be
// byte-identical to a plain single-process materialization.
func TestRunEndToEnd(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	res, err := Run(context.Background(), sum, Options{
		Dir: dir, Format: "csv", Compress: "gzip", Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 8208+1513 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if res.Verification == nil || res.Verification.Shards != 4 {
		t.Fatalf("verification = %+v", res.Verification)
	}
	if res.Verification.FilesHashed != 8 { // 2 tables × 4 shards
		t.Fatalf("files hashed = %d", res.Verification.FilesHashed)
	}
	for _, sr := range res.Shards {
		if sr.Attempts != 1 || sr.Err != nil {
			t.Fatalf("shard result = %+v", sr)
		}
	}

	plain := t.TempDir()
	plainRep, err := matgen.Materialize(sum, matgen.Options{Dir: plain, Format: "csv", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Raw-byte accounting: the compressed job's pre-compression size must
	// equal the plain run's output size, in both the job result and the
	// verification report.
	if res.RawBytes != plainRep.Bytes {
		t.Fatalf("job RawBytes = %d, plain output = %d", res.RawBytes, plainRep.Bytes)
	}
	if res.Verification.RawBytes != plainRep.Bytes {
		t.Fatalf("verification RawBytes = %d, plain output = %d", res.Verification.RawBytes, plainRep.Bytes)
	}
	if res.Bytes >= res.RawBytes {
		t.Fatalf("compressed bytes %d should undercut raw %d on this data", res.Bytes, res.RawBytes)
	}
	comp, err := matgen.CompressorFor("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"S", "T"} {
		want, err := os.ReadFile(filepath.Join(plain, table+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		var cat []byte
		for i := 0; i < 4; i++ {
			b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s.csv.part-%03d-of-%03d.gz", table, i, 4)))
			if err != nil {
				t.Fatal(err)
			}
			cat = append(cat, b...)
		}
		zr, err := comp.NewReader(bytes.NewReader(cat))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(zr)
		zr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: verified decompressed concatenation != single-process output", table)
		}
	}
}

// flakyRunner fails each shard's first n attempts, then delegates.
type flakyRunner struct {
	mu       sync.Mutex
	failures map[int]int
	n        int
}

func (f *flakyRunner) Run(ctx context.Context, sum *summary.Summary, job ShardJob) (*matgen.Report, error) {
	f.mu.Lock()
	seen := f.failures[job.Shard]
	f.failures[job.Shard]++
	f.mu.Unlock()
	if seen < f.n {
		return nil, fmt.Errorf("transient failure %d of shard %d", seen+1, job.Shard)
	}
	return LocalRunner{}.Run(ctx, sum, job)
}

// TestRetriesRecoverTransientFailures: every shard fails once, the
// default retry budget absorbs it, and verification still passes.
func TestRetriesRecoverTransientFailures(t *testing.T) {
	sum := testSummary()
	res, err := Run(context.Background(), sum, Options{
		Dir: t.TempDir(), Format: "jsonl", Shards: 3,
		Runner: &flakyRunner{failures: map[int]int{}, n: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Shards {
		if sr.Attempts != 2 {
			t.Fatalf("shard %d attempts = %d, want 2", sr.Shard, sr.Attempts)
		}
	}
	if res.Verification == nil {
		t.Fatal("verification skipped")
	}
}

// TestExhaustedRetriesFail: a shard that keeps failing exhausts its
// budget and fails the job, with the per-shard outcome preserved.
func TestExhaustedRetriesFail(t *testing.T) {
	sum := testSummary()
	res, err := Run(context.Background(), sum, Options{
		Dir: t.TempDir(), Format: "jsonl", Shards: 2, Retries: 1,
		Runner: &flakyRunner{failures: map[int]int{}, n: 99},
	})
	if err == nil {
		t.Fatal("expected job failure")
	}
	for _, sr := range res.Shards {
		if sr.Err == nil || sr.Attempts != 2 {
			t.Fatalf("shard result = %+v", sr)
		}
	}
}

// cancelingRunner fails every attempt and cancels the job context on
// the first one — the shape of a fleet going away mid-job.
type cancelingRunner struct {
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (c *cancelingRunner) Run(ctx context.Context, sum *summary.Summary, job ShardJob) (*matgen.Report, error) {
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	return nil, errors.New("runner lost")
}

// TestRetryBackoffRespectsCancellation: once the context is canceled, a
// failed shard must not sleep out its retry backoff or attempt again —
// the clean-abort contract a serving layer relies on.
func TestRetryBackoffRespectsCancellation(t *testing.T) {
	sum := testSummary()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner := &cancelingRunner{cancel: cancel}
	start := time.Now()
	res, err := Run(ctx, sum, Options{
		Dir: t.TempDir(), Format: "csv", Shards: 1,
		Retries: 5, RetryBackoff: 30 * time.Second,
		Runner: runner,
	})
	if err == nil {
		t.Fatal("expected job failure")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("canceled job took %v; the retry backoff was slept out", waited)
	}
	if got := runner.calls.Load(); got != 1 {
		t.Fatalf("runner attempted %d times after cancellation, want 1", got)
	}
	if sr := res.Shards[0]; sr.Attempts != 1 || sr.Err == nil {
		t.Fatalf("shard result = %+v", sr)
	}
}

// TestLocalRunnerCancellation: the in-process Runner honors ctx the
// same way a remote one does — the materialization aborts mid-run with
// the context's error and leaves no partial artifacts.
func TestLocalRunnerCancellation(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	job := ShardJob{Opts: matgen.Options{
		Dir: dir, Format: "csv", Workers: 2, Shards: 1, RateLimit: 500,
	}}
	if _, err := (LocalRunner{}).Run(ctx, sum, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("partial artifact left behind: %s", e.Name())
	}
}

func TestPlanValidation(t *testing.T) {
	for _, opts := range []Options{
		{Format: "csv"},                         // no dir
		{Dir: "x", Format: "discard"},           // nothing to verify
		{Dir: "x", Format: "csv", Shards: -1},   // bad shards
		{Dir: "x", Format: "csv", Parallel: -2}, // bad parallel
	} {
		if _, err := NewPlan(opts); err == nil {
			t.Fatalf("opts %+v: expected error", opts)
		}
	}
	p, err := NewPlan(Options{Dir: "x", Shards: 5, Parallel: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Jobs) != 5 || p.Parallel != 2 || p.Jobs[4].Opts.Shard != 4 || p.Jobs[0].Opts.Workers != 3 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Retries != DefaultRetries {
		t.Fatalf("retries = %d", p.Retries)
	}
}

// runVerified produces a verified 3-shard gzip job for tampering tests.
func runVerified(t *testing.T) (string, *summary.Summary) {
	t.Helper()
	sum := testSummary()
	dir := t.TempDir()
	if _, err := Run(context.Background(), sum, Options{
		Dir: dir, Format: "csv", Compress: "gzip", Shards: 3,
	}); err != nil {
		t.Fatal(err)
	}
	return dir, sum
}

func rewriteManifest(t *testing.T, dir string, shard, shards int, mutate func(*matgen.Manifest)) {
	t.Helper()
	path := matgen.ManifestPath(dir, shard, shards)
	m, err := matgen.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(m)
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFailureModes proves each corruption class surfaces as its own
// sentinel error — the contract that lets an operator tell a torn copy
// from bit rot from a mis-planned split.
func TestVerifyFailureModes(t *testing.T) {
	sentinels := []error{ErrManifestMissing, ErrManifestInconsistent, ErrRangeOverlap,
		ErrRangeGap, ErrRowCount, ErrTruncated, ErrChecksum, ErrStaleArtifacts}
	expectOnly := func(t *testing.T, err error, want error) {
		t.Helper()
		if err == nil {
			t.Fatal("expected verification failure")
		}
		for _, s := range sentinels {
			if errors.Is(err, s) != (s == want) {
				t.Fatalf("err %v: errors.Is(%v) = %v", err, s, s != want)
			}
		}
	}
	partFile := func(dir, table string, shard int) string {
		return filepath.Join(dir, fmt.Sprintf("%s.csv.part-%03d-of-%03d.gz", table, shard, 3))
	}

	t.Run("clean", func(t *testing.T) {
		dir, sum := runVerified(t)
		if _, err := Verify(VerifyOptions{Dir: dir, Summary: sum}); err != nil {
			t.Fatal(err)
		}
		// Shards inferred from the manifests must match the explicit width.
		if vr, err := Verify(VerifyOptions{Dir: dir, Shards: 3}); err != nil || vr.Shards != 3 {
			t.Fatalf("explicit-width verify: %+v, %v", vr, err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dir, sum := runVerified(t)
		path := partFile(dir, "S", 1)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrTruncated)
	})

	t.Run("checksum", func(t *testing.T) {
		dir, sum := runVerified(t)
		path := partFile(dir, "T", 2)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff // same size, different bytes
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrChecksum)
	})

	t.Run("overlap", func(t *testing.T) {
		dir, sum := runVerified(t)
		rewriteManifest(t, dir, 1, 3, func(m *matgen.Manifest) {
			m.Tables[0].StartRow -= 10
		})
		_, err := Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrRangeOverlap)
	})

	t.Run("gap", func(t *testing.T) {
		dir, sum := runVerified(t)
		rewriteManifest(t, dir, 1, 3, func(m *matgen.Manifest) {
			m.Tables[0].StartRow += 10
			m.Tables[0].Rows -= 10
		})
		_, err := Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrRangeGap)
	})

	t.Run("rowcount", func(t *testing.T) {
		dir, sum := runVerified(t)
		grown := *sum.Relations["S"]
		grown.Total += 5
		bigger := &summary.Summary{Relations: map[string]*summary.RelationSummary{
			"S": &grown, "T": sum.Relations["T"],
		}}
		// Ranges still tile the manifests' TotalRows, so the failure is
		// specifically the cardinality anchor, not the tiling.
		_, err := Verify(VerifyOptions{Dir: dir, Summary: bigger})
		expectOnly(t, err, ErrRowCount)
	})

	t.Run("missing-manifest", func(t *testing.T) {
		dir, sum := runVerified(t)
		if err := os.Remove(matgen.ManifestPath(dir, 2, 3)); err != nil {
			t.Fatal(err)
		}
		_, err := Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrManifestMissing)
	})

	t.Run("stale-split", func(t *testing.T) {
		// Leftovers from an earlier 2-shard run must fail verification
		// of the 3-shard split: a `cat *.part-*` consumption glob would
		// mix both widths.
		dir, sum := runVerified(t)
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: "csv", Compress: "gzip", Workers: 2,
			Shards: 2, Shard: 0,
		}); err != nil {
			t.Fatal(err)
		}
		_, err := Verify(VerifyOptions{Dir: dir, Shards: 3, Summary: sum})
		expectOnly(t, err, ErrStaleArtifacts)
	})

	// The chunk index a directory scan seeks by is part of what Verify
	// vouches for: one that does not fit its part's rows or bytes is an
	// inconsistent manifest, whichever way it is wrong.
	for name, mutate := range map[string]func(*matgen.TableReport){
		"index-short":      func(tr *matgen.TableReport) { tr.Offsets = tr.Offsets[1:] },
		"index-unordered":  func(tr *matgen.TableReport) { tr.Offsets[1] = tr.Offsets[0] },
		"index-past-bytes": func(tr *matgen.TableReport) { tr.Offsets[len(tr.Offsets)-1] = tr.Bytes },
	} {
		t.Run(name, func(t *testing.T) {
			dir, sum := runVerified(t)
			rewriteManifest(t, dir, 1, 3, func(m *matgen.Manifest) {
				if len(m.Tables[0].Offsets) < 2 {
					t.Fatalf("fixture has no multi-chunk index: %+v", m.Tables[0])
				}
				mutate(&m.Tables[0])
			})
			_, err := Verify(VerifyOptions{Dir: dir, Summary: sum})
			expectOnly(t, err, ErrManifestInconsistent)
		})
	}

	t.Run("inconsistent-width", func(t *testing.T) {
		dir, sum := runVerified(t)
		rewriteManifest(t, dir, 0, 3, func(m *matgen.Manifest) {
			m.Tables[0].TotalRows += 99
		})
		_, err := Verify(VerifyOptions{Dir: dir, Summary: sum})
		expectOnly(t, err, ErrManifestInconsistent)
	})
}

// TestDuplicateTableSubset: matgen dedups a repeated subset name at
// generation time, so verification must accept the same repeated subset
// rather than demanding a table count the manifests can never carry.
func TestDuplicateTableSubset(t *testing.T) {
	sum := testSummary()
	dir := t.TempDir()
	tables := []string{"S", "S"}
	if _, err := Run(context.Background(), sum, Options{
		Dir: dir, Format: "csv", Shards: 2, Tables: tables,
	}); err != nil {
		t.Fatal(err)
	}
	if tables[0] != "S" || tables[1] != "S" {
		t.Fatalf("caller's subset mutated: %v", tables)
	}
}

// TestVerifyShippedDirectory: parts generated in per-machine directories
// and shipped into one place must verify there — Verify resolves files
// by base name under its own Dir, not by the recorded absolute path.
func TestVerifyShippedDirectory(t *testing.T) {
	sum := testSummary()
	const shards = 2
	machines := []string{t.TempDir(), t.TempDir()}
	for i, dir := range machines {
		if _, err := matgen.Materialize(sum, matgen.Options{
			Dir: dir, Format: "jsonl", Compress: "gzip", Workers: 2,
			Shards: shards, Shard: i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	collected := t.TempDir()
	for _, dir := range machines {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(collected, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	vr, err := Verify(VerifyOptions{Dir: collected, Summary: sum})
	if err != nil {
		t.Fatal(err)
	}
	if vr.Shards != shards || vr.Compression != "gzip" || len(vr.Tables) != 2 {
		t.Fatalf("report = %+v", vr)
	}
}
