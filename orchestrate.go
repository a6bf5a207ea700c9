package hydra

import (
	"context"

	"github.com/dsl-repro/hydra/internal/orchestrate"
)

// Orchestration: internal/orchestrate plans an N-shard materialization
// job, runs the shards across a worker set with retries, and verifies
// the collected manifests; this facade re-exports it so clients can run
// cluster-shaped jobs without touching internal packages.
type (
	// OrchestrateOptions tunes Orchestrate: output directory/format/
	// codec, the shard split, how many shards run at once, per-shard
	// retries, and the Runner seam for remote executors.
	OrchestrateOptions = orchestrate.Options
	// OrchestrateResult aggregates per-shard outcomes plus the
	// post-run verification report.
	OrchestrateResult = orchestrate.Result
	// OrchestrateRunner executes one shard job; plug in an
	// implementation that ships jobs to other machines.
	OrchestrateRunner = orchestrate.Runner
	// ShardVerifyReport summarizes a successful manifest verification.
	ShardVerifyReport = orchestrate.VerifyReport
	// ShardVerifyOptions selects the directory, expected split width,
	// and summary anchor for VerifyShards.
	ShardVerifyOptions = orchestrate.VerifyOptions
)

// Orchestrate plans, runs, retries, and verifies an N-shard
// materialization of the summary — the cluster-scale regeneration path:
// every shard's manifest must name the summary's digest and tile the row
// space, and every output file must re-hash to its recorded checksum
// before the job reports success.
func Orchestrate(ctx context.Context, s *Summary, opts OrchestrateOptions) (*OrchestrateResult, error) {
	return orchestrate.Run(ctx, s, opts)
}

// VerifyShards re-verifies a directory of shard outputs and manifests
// (for example after shipping every machine's artifacts to one place):
// it is OpenDirSource followed by the source's Verify method, which
// hashes every part, each part's 1 MiB blocks on every core. A zero
// Shards takes the split width from the manifests; a nil Summary skips
// the cardinality and digest anchor and checks internal consistency
// only.
func VerifyShards(opts ShardVerifyOptions) (*ShardVerifyReport, error) {
	return orchestrate.Verify(opts)
}
