package serve

import (
	"archive/tar"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/orchestrate"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
)

// RunnerOptions tunes a RemoteRunner.
type RunnerOptions struct {
	// Client issues the HTTP requests; nil builds one without timeouts
	// (shard streams legitimately run long; cancellation comes from the
	// job context).
	Client *http.Client
	// Attempts is how many failures one Run takes before giving up (each
	// moves the job to a member it has not failed on yet; 503s are waited
	// out, not counted); 0 means the fleet size. The orchestrator's own
	// retry budget multiplies on top of this.
	Attempts int
	// Workers overrides the encode worker count sent with each job.
	// Zero — the default — lets every server choose its own parallelism
	// (GOMAXPROCS there), which is almost always right for a
	// heterogeneous fleet; the local plan's per-shard split of *this*
	// machine's cores is meaningless remotely.
	Workers int
	// Fleet tunes the resilience substrate under the runner: background
	// /healthz probing, per-member circuit breakers, jittered retry
	// backoff, and the shared retry budget. The zero value means
	// defaults (probing on, breakers on); set Fleet.ProbeInterval
	// negative to disable probing, Fleet.BreakerThreshold negative to
	// disable breakers.
	Fleet resilience.Options
}

// RemoteRunner executes orchestrate shard jobs on a fleet of serve
// servers: the client half of regeneration-as-a-service. It implements
// orchestrate.Runner, so hydra.Orchestrate schedules, retries, and
// verifies exactly as it does in-process — only the execution is
// elsewhere. Jobs round-robin across the fleet; a failed job fails over
// to the next server with its partial artifacts removed, and every
// fetched file is re-hashed against the manifest the server bundled
// before the job reports success.
type RemoteRunner struct {
	resilience.Fleet
	opts   RunnerOptions
	policy resilience.Policy

	mu     sync.Mutex
	digSum *summary.Summary // summary the cached digest was computed for
	digest string
}

var _ orchestrate.Runner = (*RemoteRunner)(nil)

// NewRemoteRunner builds a runner over the fleet's base URLs
// (e.g. "http://10.0.0.7:8372").
func NewRemoteRunner(servers []string, opts RunnerOptions) (*RemoteRunner, error) {
	fleet, err := resilience.Connect(servers, opts.Fleet)
	if err != nil {
		return nil, err
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	attempts := opts.Attempts
	if attempts <= 0 {
		attempts = len(servers)
	}
	return &RemoteRunner{
		Fleet:  fleet,
		opts:   opts,
		policy: fleet.Tracker().Policy("runner", attempts),
	}, nil
}

// Run implements orchestrate.Runner: ship the job to a fleet member,
// fetch the artifact bundle into the job's output directory, verify it
// against the bundled manifest, and fail over on any error.
func (r *RemoteRunner) Run(ctx context.Context, sum *summary.Summary, job orchestrate.ShardJob) (rep *matgen.Report, err error) {
	// One span per shard job, child of the orchestrator's shard span
	// when one is running; failovers and busy-waits land here as
	// events, individual POSTs as runner.attempt child spans.
	ctx, sp := trace.Start(ctx, "runner.shardjob",
		trace.Int("shard", int64(job.Shard+1)),
		trace.Int("shards", int64(job.Opts.Shards)))
	defer func() { sp.Fail(err); sp.End() }()
	if job.Opts.Dir == "" {
		return nil, errors.New("serve: remote job needs an output directory")
	}
	if err := os.MkdirAll(job.Opts.Dir, 0o755); err != nil {
		return nil, err
	}
	req, err := r.jobRequest(sum, job)
	if err != nil {
		return nil, err
	}
	// Failover, busy-waits and backoff are resilience.Do's; what is left
	// here is the attempt itself and the member's rows/s observation.
	err = r.Tracker().Do(ctx, r.policy, func(ctx context.Context, m *resilience.Member) (err error) {
		if rep, err = r.runOn(ctx, m.URL, req, job); err == nil {
			m.ReportSuccess(0, float64(rep.Rows)/max(rep.Elapsed.Seconds(), 1e-9))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d/%d: %w", job.Shard+1, job.Opts.Shards, err)
	}
	return rep, nil
}

// jobRequest maps the orchestrator's resolved matgen options onto the
// wire document.
func (r *RemoteRunner) jobRequest(sum *summary.Summary, job orchestrate.ShardJob) (*ShardJobRequest, error) {
	req := &ShardJobRequest{
		Format:    job.Opts.Format,
		Compress:  job.Opts.Compress,
		Shards:    job.Opts.Shards,
		Shard:     job.Opts.Shard,
		Tables:    job.Opts.Tables,
		Workers:   r.opts.Workers,
		RateLimit: job.Opts.RateLimit,
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	digest, err := r.digestFor(sum)
	if err != nil {
		return nil, err
	}
	req.SummaryDigest = digest
	return req, nil
}

// digestFor caches the summary digest across the many Run calls one
// orchestrated job makes with the same summary.
func (r *RemoteRunner) digestFor(sum *summary.Summary) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.digSum == sum && r.digest != "" {
		return r.digest, nil
	}
	digest, err := SummaryDigest(sum)
	if err != nil {
		return "", err
	}
	r.digSum, r.digest = sum, digest
	return digest, nil
}

// runOn executes the job on one server and unpacks the bundle. The
// download stages into a private temp dir and is renamed into the
// output directory only after the whole bundle verified against its
// manifest — so a failed, torn, or misbehaving attempt can never touch
// (let alone clobber) another shard's already-delivered artifacts, and
// a follow-up attempt starts from a clean slate.
func (r *RemoteRunner) runOn(ctx context.Context, srv string, req *ShardJobRequest, job orchestrate.ShardJob) (_ *matgen.Report, err error) {
	ctx, asp := trace.Start(ctx, "runner.attempt", trace.Str("member", srv))
	defer func() { asp.Fail(err); asp.End() }()
	start := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv+"/v1/shardjobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tp := asp.Traceparent(); tp != "" {
		hreq.Header.Set(trace.Header, tp)
	}
	resp, err := r.opts.Client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resilience.StatusError(resp)
	}

	dir := job.Opts.Dir
	// The dot-prefixed staging dir is invisible to shard verification
	// and glob-based consumption even if a crash leaves it behind.
	stage, err := os.MkdirTemp(dir, ".hydra-fetch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stage)

	files := map[string]fileState{}
	tr := tar.NewReader(resp.Body)
	for {
		hdr, terr := tr.Next()
		if errors.Is(terr, io.EOF) {
			break
		}
		if terr != nil {
			return nil, fmt.Errorf("artifact bundle: %w", terr)
		}
		name := hdr.Name
		if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") ||
			hdr.Typeflag != tar.TypeReg {
			return nil, fmt.Errorf("artifact bundle: unexpected entry %q", name)
		}
		f, ferr := os.Create(filepath.Join(stage, name))
		if ferr != nil {
			return nil, ferr
		}
		h := sha256.New()
		n, cerr := io.Copy(io.MultiWriter(f, h), tr)
		if werr := f.Close(); cerr == nil {
			cerr = werr
		}
		if cerr != nil {
			return nil, fmt.Errorf("artifact bundle: %s: %w", name, cerr)
		}
		files[name] = fileState{size: n, sum: hex.EncodeToString(h.Sum(nil))}
	}

	manifestName := filepath.Base(matgen.ManifestPath(dir, req.Shard, req.Shards))
	if _, ok := files[manifestName]; !ok {
		return nil, fmt.Errorf("artifact bundle ended without manifest %s", manifestName)
	}
	m, err := matgen.ReadManifest(filepath.Join(stage, manifestName))
	if err != nil {
		return nil, err
	}
	if err := checkBundle(m, req, files, manifestName); err != nil {
		return nil, err
	}
	// Commit: data files first, the manifest last, so an interrupted
	// commit leaves a shard that loudly fails verification rather than
	// a manifest vouching for files that never landed.
	for name := range files {
		if name == manifestName {
			continue
		}
		if err := os.Rename(filepath.Join(stage, name), filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	if err := os.Rename(filepath.Join(stage, manifestName), filepath.Join(dir, manifestName)); err != nil {
		return nil, err
	}

	rep := &matgen.Report{
		Format:       m.Format,
		Compression:  m.Compression,
		Shard:        m.Shard,
		Shards:       m.Shards,
		Tables:       append([]matgen.TableReport(nil), m.Tables...),
		Rows:         m.Rows,
		Bytes:        m.Bytes,
		RawBytes:     m.RawBytes,
		Elapsed:      time.Since(start),
		ManifestPath: filepath.Join(dir, manifestName),
	}
	if rep.RawBytes == 0 {
		rep.RawBytes = rep.Bytes
	}
	// The manifest records the server's paths; the report speaks for the
	// local copies.
	for i := range rep.Tables {
		rep.Tables[i].Path = filepath.Join(dir, filepath.Base(rep.Tables[i].Path))
	}
	return rep, nil
}

// fileState is one fetched bundle entry's observed size and SHA-256.
type fileState struct {
	size int64
	sum  string
}

// checkBundle proves the fetched artifacts are the job that was asked
// for and arrived intact: the manifest must describe this exact shard,
// every manifest-listed file must be present with its recorded size and
// SHA-256 (re-hashed during download), and the bundle must carry
// nothing else.
func checkBundle(m *matgen.Manifest, req *ShardJobRequest, files map[string]fileState, manifestName string) error {
	if m.Shard != req.Shard || m.Shards != req.Shards {
		return fmt.Errorf("manifest claims shard %d of %d, requested %d of %d",
			m.Shard, m.Shards, req.Shard, req.Shards)
	}
	if m.Format != req.Format {
		return fmt.Errorf("manifest format %q, requested %q", m.Format, req.Format)
	}
	wantComp := req.Compress
	if wantComp == "none" {
		wantComp = ""
	}
	if m.Compression != wantComp {
		return fmt.Errorf("manifest compression %q, requested %q", m.Compression, wantComp)
	}
	expected := map[string]bool{manifestName: true}
	for _, tr := range m.Tables {
		if tr.Path == "" {
			continue
		}
		name := filepath.Base(tr.Path)
		expected[name] = true
		got, ok := files[name]
		if !ok {
			return fmt.Errorf("bundle missing %s", name)
		}
		if got.size != tr.Bytes {
			return fmt.Errorf("%s: %d bytes fetched, manifest recorded %d", name, got.size, tr.Bytes)
		}
		if tr.Checksum != "" && got.sum != tr.Checksum {
			return fmt.Errorf("%s: sha256 %s, manifest recorded %s", name, got.sum, tr.Checksum)
		}
	}
	for name := range files {
		if !expected[name] {
			return fmt.Errorf("bundle carried unexpected file %s", name)
		}
	}
	return nil
}
