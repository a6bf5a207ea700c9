// Package orchestrate schedules a multi-shard materialization job and
// verifies its output. Where internal/matgen generates one -shard i/N
// piece per invocation, the orchestrator plans all N pieces, runs them
// across a worker set (an in-process pool today; the Runner interface is
// the seam where remote executors slot in), retries failed shards, then
// collects the per-shard JSON manifests and proves the result is whole:
// row counts sum to the summary's cardinalities, the manifests name the
// summary's digest, shard row ranges tile with no gaps or overlaps, and
// each output file re-hashes to the checksum its manifest recorded.
//
// The verification side is deliberately independent of the generation
// side: Verify needs only a directory of part files and manifests, so a
// multi-machine run can ship every machine's artifacts to one place and
// prove the assembly there before loading it anywhere. It reads that
// directory the way a scan does, through internal/scan's DirSource,
// which owns the directory contract and its failure sentinels.
package orchestrate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/obs"
	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/trace"
)

// Job-level observability: attempts vs retries (and why the retries
// happened), per-shard wall time, and final shard outcomes — enough to
// see a flapping runner or a pathological shard from /metrics alone.
var (
	mShardAttempts = obs.Default.Counter("hydra_orchestrate_shard_attempts_total",
		"shard job runs, including retries")
	mShardRetriesErr = obs.Default.Counter("hydra_orchestrate_shard_retries_total",
		"shard re-runs after a failed attempt", obs.L("reason", "error"))
	mShardsOK = obs.Default.Counter("hydra_orchestrate_shards_total",
		"shard jobs by final outcome", obs.L("result", "ok"))
	mShardsFailed = obs.Default.Counter("hydra_orchestrate_shards_total",
		"shard jobs by final outcome", obs.L("result", "failed"))
	mShardSeconds = obs.Default.Histogram("hydra_orchestrate_shard_seconds",
		"wall time of one shard job including retries and backoff", nil)
)

// Options tunes one orchestrated job.
type Options struct {
	// Dir is the output directory shared by every shard.
	Dir string
	// Format is the output format ("heap" when empty), one that writes
	// files (format.FileNames): a run of one that writes none would leave
	// nothing to verify.
	Format string
	// Compress names the output codec ("gzip"; "" disables).
	Compress string
	// Shards is the number of pieces to split each table into; 0 means 1.
	Shards int
	// Parallel bounds how many shards run at once; 0 means
	// min(Shards, GOMAXPROCS).
	Parallel int
	// Workers is the per-shard encode worker count; 0 divides GOMAXPROCS
	// evenly among the parallel shard slots (at least 1 each).
	Workers int
	// Tables restricts the job to a subset of relations (all when nil).
	Tables []string
	// Retries is how many times a failed shard is re-run before the job
	// gives up; negative means no retries. Zero means DefaultRetries.
	Retries int
	// RetryBackoff is the backoff ceiling before each re-run — the grace
	// period a remote runner needs to fail over, and the damper that
	// keeps a flapping executor from being hammered. The actual pause is
	// drawn with full jitter: retry k sleeps uniformly in
	// [0, RetryBackoff<<k-1], so shards that failed together do not
	// retry in lockstep. Zero means DefaultRetryBackoff; negative means
	// none. The pause observes ctx: a canceled job never sleeps out its
	// backoff.
	RetryBackoff time.Duration
	// Runner executes shard jobs; nil means the in-process LocalRunner.
	Runner Runner
}

// DefaultRetries is how often a failed shard is re-run when
// Options.Retries is zero.
const DefaultRetries = 2

// DefaultRetryBackoff is the pause before a re-run when
// Options.RetryBackoff is zero.
const DefaultRetryBackoff = 100 * time.Millisecond

// ShardJob is one schedulable piece of the plan: a fully resolved
// matgen invocation for shard Shard of Plan.Shards.
type ShardJob struct {
	Shard int
	Opts  matgen.Options
}

// Plan is the resolved job: one ShardJob per shard, all writing into the
// same directory with the same sink, codec, and table subset.
type Plan struct {
	Shards   int
	Parallel int
	Retries  int
	Backoff  time.Duration
	Jobs     []ShardJob
}

// Runner executes one shard job. Implementations must be safe for
// concurrent use; the orchestrator invokes Run from Parallel goroutines.
// LocalRunner materializes in-process; a remote executor would ship the
// job spec to another machine and wait for its manifest.
type Runner interface {
	Run(ctx context.Context, sum *summary.Summary, job ShardJob) (*matgen.Report, error)
}

// LocalRunner runs shard jobs in-process on the matgen engine. It
// matches the remote runner's cancellation contract: ctx aborts the
// materialization mid-run, partial output is removed, and the context's
// error is returned.
type LocalRunner struct{}

// Run implements Runner.
func (LocalRunner) Run(ctx context.Context, sum *summary.Summary, job ShardJob) (*matgen.Report, error) {
	return matgen.MaterializeContext(ctx, sum, job.Opts)
}

// ShardResult records one shard's outcome.
type ShardResult struct {
	Shard int
	// Attempts is how many runs it took (1 = first try succeeded).
	Attempts int
	// Report is the successful run's report, nil when the shard failed.
	Report *matgen.Report
	// Err is the last attempt's error when the shard ultimately failed.
	Err error
}

// Result aggregates one orchestrated job.
type Result struct {
	Plan   *Plan
	Shards []ShardResult
	// Verification is the post-run manifest check.
	Verification *VerifyReport
	Rows         int64
	Bytes        int64
	// RawBytes is the job's encoded size before compression — equal to
	// Bytes for uncompressed jobs, and the decompressed assembly size for
	// compressed ones, the number capacity planning needs.
	RawBytes int64
	Elapsed  time.Duration
}

// RowsPerSec returns the whole-job generation throughput.
func (r *Result) RowsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Rows) / r.Elapsed.Seconds()
}

// NewPlan resolves Options into a concrete shard plan without running it.
func NewPlan(opts Options) (*Plan, error) {
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("orchestrate: shards %d out of range", opts.Shards)
	}
	if opts.Dir == "" {
		return nil, errors.New("orchestrate: Dir is required")
	}
	f, err := format.ByName(cmp.Or(opts.Format, "heap"))
	if err != nil {
		return nil, fmt.Errorf("orchestrate: %w", err)
	}
	if !f.Writes() {
		return nil, fmt.Errorf("orchestrate: format %q leaves nothing to verify; use matgen directly", f.Name())
	}
	parallel := opts.Parallel
	if parallel == 0 {
		parallel = opts.Shards
		if p := runtime.GOMAXPROCS(0); parallel > p {
			parallel = p
		}
	}
	if parallel < 1 {
		return nil, fmt.Errorf("orchestrate: parallel %d out of range", opts.Parallel)
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0) / parallel
		if workers < 1 {
			workers = 1
		}
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	} else if backoff < 0 {
		backoff = 0
	}
	p := &Plan{Shards: opts.Shards, Parallel: parallel, Retries: retries, Backoff: backoff}
	for i := 0; i < opts.Shards; i++ {
		p.Jobs = append(p.Jobs, ShardJob{Shard: i, Opts: matgen.Options{
			Dir:      opts.Dir,
			Format:   f.Name(),
			Compress: opts.Compress,
			Workers:  workers,
			Shards:   opts.Shards,
			Shard:    i,
			Tables:   opts.Tables,
		}})
	}
	return p, nil
}

// Run plans and executes the job, then verifies the assembled output
// against the summary. The returned Result carries per-shard outcomes
// even when the job fails; the error is the first shard failure or
// verification failure.
func Run(ctx context.Context, sum *summary.Summary, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := NewPlan(opts)
	if err != nil {
		return nil, err
	}
	runner := opts.Runner
	if runner == nil {
		runner = LocalRunner{}
	}
	start := time.Now()
	res := &Result{Plan: plan, Shards: make([]ShardResult, len(plan.Jobs))}

	sem := make(chan struct{}, plan.Parallel)
	var wg sync.WaitGroup
	for i, job := range plan.Jobs {
		wg.Add(1)
		go func(i int, job ShardJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res.Shards[i] = runShard(ctx, runner, sum, job, plan.Retries, plan.Backoff)
		}(i, job)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	var firstErr error
	for _, sr := range res.Shards {
		if sr.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("orchestrate: shard %d/%d failed after %d attempts: %w",
					sr.Shard+1, plan.Shards, sr.Attempts, sr.Err)
			}
			continue
		}
		res.Rows += sr.Report.Rows
		res.Bytes += sr.Report.Bytes
		if sr.Report.RawBytes > 0 {
			res.RawBytes += sr.Report.RawBytes
		} else {
			res.RawBytes += sr.Report.Bytes
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	vr, err := Verify(VerifyOptions{Dir: opts.Dir, Shards: plan.Shards, Summary: sum, Tables: opts.Tables})
	res.Verification = vr
	return res, err
}

// runShard runs one job with retries, pausing a jittered backoff
// between attempts (full jitter over a doubling ceiling, so shards that
// failed together spread their retries instead of stampeding the
// runner in lockstep). Re-running is safe: matgen truncates its output
// files on open, and the manifest write is atomic. Cancellation is
// respected everywhere a retry could stall: before the first attempt,
// during the backoff pause (a canceled job returns immediately instead
// of sleeping it out), and after a failed attempt.
func runShard(ctx context.Context, runner Runner, sum *summary.Summary, job ShardJob, retries int, backoff time.Duration) ShardResult {
	sr := ShardResult{Shard: job.Shard}
	if err := ctx.Err(); err != nil {
		sr.Attempts, sr.Err = 0, err
		return sr
	}
	// One span per shard: attempts by the runner (and, remotely, by the
	// server) nest under it, so a whole materialization reads as one
	// tree — orchestrate.shard → runner.shardjob → runner.attempt.
	ctx, sp := trace.Start(ctx, "orchestrate.shard",
		trace.Int("shard", int64(job.Shard+1)),
		trace.Int("shards", int64(job.Opts.Shards)))
	t0 := time.Now()
	defer func() {
		mShardSeconds.ObserveSince(t0)
		if sr.Err == nil {
			mShardsOK.Inc()
		} else {
			mShardsFailed.Inc()
		}
		sp.Fail(sr.Err)
		sp.End()
	}()
	pol := resilience.Policy{Base: backoff, Max: 8 * backoff}
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			mShardRetriesErr.Inc()
			if backoff > 0 {
				d := pol.Delay(attempt)
				sp.Event("retry-backoff", trace.Dur("wait", d),
					trace.Int("retry", int64(attempt)))
				if resilience.Sleep(ctx, d) != nil {
					return sr // keep the last attempt's error, not ctx's
				}
			}
		}
		sr.Attempts = attempt + 1
		mShardAttempts.Inc()
		rep, err := runner.Run(ctx, sum, job)
		if err == nil {
			sr.Report, sr.Err = rep, nil
			return sr
		}
		sr.Err = err
		if ctx.Err() != nil {
			return sr // cancelled; retrying cannot help
		}
	}
	return sr
}
