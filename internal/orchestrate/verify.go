package orchestrate

import (
	"context"
	"errors"
	"fmt"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/summary"
)

// Verification failure classes: the shard-directory sentinels of
// internal/scan, whose DirSource owns the directory contract, and
// matgen's for a manifest that contradicts itself or its siblings. Every
// failure Verify can report about a directory's contents wraps exactly
// one of these, so callers (and tests) distinguish a truncated part file
// from a bad checksum from a mis-tiled range with errors.Is instead of
// string matching.
var (
	ErrManifestMissing      = scan.ErrManifestMissing
	ErrManifestInconsistent = matgen.ErrManifestInconsistent
	ErrRangeOverlap         = scan.ErrRangeOverlap
	ErrRangeGap             = scan.ErrRangeGap
	ErrRowCount             = scan.ErrRowCount
	ErrTruncated            = scan.ErrTruncated
	ErrChecksum             = scan.ErrChecksum
	ErrStaleArtifacts       = scan.ErrStaleArtifacts
	ErrSummaryDigest        = scan.ErrSummaryDigest
)

// VerifyOptions selects what to verify.
type VerifyOptions struct {
	// Dir holds the part files and manifests. Part files are looked up
	// by base name under Dir, so artifacts generated elsewhere can be
	// shipped into one directory and verified there.
	Dir string
	// Shards is the expected split width; 0 takes the manifests' width.
	Shards int
	// Summary, when set, anchors the check: every table's shard rows
	// must sum to its cardinality, every expected relation must be
	// present, and the manifests must name Summary's digest.
	Summary *summary.Summary
	// Tables is the expected table subset when Summary is set; nil means
	// all of Summary's relations.
	Tables []string
}

type (
	// TableCheck is one verified table.
	TableCheck = scan.TableCheck
	// VerifyReport summarizes a successful verification.
	VerifyReport = scan.VerifyReport
)

// Verify opens Dir with scan.OpenDir and proves the split whole with
// (*scan.DirSource).Verify: all manifests present and mutually
// consistent, of the width Shards asks for, every table's shard ranges
// tiling [0, TotalRows) with rows summing to the summary's cardinality,
// the manifests naming the summary's digest, and every part file
// matching its recorded size and checksum, its blocks hashed on every
// core. The first failure is returned wrapped around its sentinel.
func Verify(opts VerifyOptions) (*VerifyReport, error) {
	if opts.Dir == "" {
		return nil, errors.New("orchestrate: verify: Dir is required")
	}
	src, err := scan.OpenDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.Shards != 0 && src.Shards() != opts.Shards {
		return nil, fmt.Errorf("orchestrate: %w: %s holds a %d-shard split, verifying %d",
			ErrStaleArtifacts, opts.Dir, src.Shards(), opts.Shards)
	}
	return src.Verify(context.Background(), opts.Summary, opts.Tables)
}
