package hydra

import (
	"io"

	"github.com/dsl-repro/hydra/internal/resilience"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// The unified read path: internal/scan gives every place regenerated
// data lives — a loaded summary, a materialized shard directory, a
// fleet of regeneration servers — one pull-based, columnar scan API.
// Open a Source, describe what to read with a ScanSpec, pull RowBatches:
//
//	src := hydra.NewSummarySource(res.Summary)   // or OpenDirSource / NewRemoteSource
//	sc, err := src.Scan(ctx, hydra.ScanSpec{Table: "S", Columns: []string{"S_pk", "A"}})
//	...
//	defer sc.Close()
//	for sc.Next() {
//	    b := sc.Batch() // column-major and read-only; valid until the next Next or Close
//	}
//	err = sc.Err()
//
// For any given ScanSpec all three backends yield the identical batch
// sequence — same boundaries, same values — so consumers bind to Source
// once and run against any of them.
type (
	// Source is a handle on regenerated data, wherever it lives.
	Source = scan.Source
	// Scan is the pull-based batch iterator a Source returns.
	Scan = scan.Scan
	// ScanSpec selects what a Scan reads: table, column projection,
	// pk range, filter predicate (Filter, built with Col or ParseWhere),
	// shard i/N split, batch size, rows/s rate limit.
	ScanSpec = scan.Spec
	// ScanTableInfo describes one scannable relation.
	ScanTableInfo = scan.TableInfo
	// RowBatch is a column-major block of consecutive rows — the unit
	// every Scan yields and tuplegen generates. Its columns are
	// read-only: a batch is refilled in place, skipping the values its
	// memory already holds, so a write into it would show in later
	// batches. Copy what you need to change.
	RowBatch = tuplegen.Batch
	// SummarySource scans a loaded summary (in-process dynamic
	// regeneration).
	SummarySource = scan.SummarySource
	// DirSource scans a materialized shard directory. A part is hashed
	// against its manifest's size and SHA-256 before the first row the
	// source decodes from it, and again only when the file's size, mtime
	// or identity has changed since; a ranged scan seeks to its first row
	// by the manifest's chunk index instead of reading up to it. Its
	// Verify method proves the whole directory and hashes every part.
	DirSource = scan.DirSource
	// RemoteSource scans a `hydra serve` fleet: it reads the summary's
	// runs (format=spans) with the filter pushed to the server, projects
	// client-side as it fills batches, resumes at the exact row on a
	// torn stream, and fails over across members. It remembers each
	// table's geometry and checks it against the summary digest every
	// stream carries, so a scan of a table it has seen is one request.
	RemoteSource = scan.RemoteSource
	// RemoteSourceOptions tunes a RemoteSource.
	RemoteSourceOptions = scan.RemoteOptions
	// FleetOptions tunes the resilience substrate every fleet consumer
	// shares (RemoteSource, the shard Runner, the remote:// sql driver):
	// background /healthz probing, per-member circuit breakers, jittered
	// retry backoff, and the shared retry budget. The zero value means
	// production defaults; see the field docs in internal/resilience.
	FleetOptions = resilience.Options
	// FleetTracker is the live fleet view the resilience layer keeps:
	// per-member health state (healthy / draining / open-breaker) and
	// EWMAs of observed latency and rows/s.
	FleetTracker = resilience.Tracker
	// FleetMember is one tracked fleet member.
	FleetMember = resilience.Member
)

// ErrScanSpec marks scan requests the caller got wrong (unknown table or
// column, out-of-range shard); test with errors.Is.
var ErrScanSpec = scan.ErrSpec

// NewSummarySource returns a Source that generates batches straight from
// the summary — the paper's dynamic regeneration path (§2, §6), now
// behind the same API as every other backend.
func NewSummarySource(s *Summary) *SummarySource { return scan.NewSummarySource(s) }

// OpenDirSource returns a Source over a materialized shard directory
// (the output of Materialize or Orchestrate): part files are decoded
// against their manifests. Integrity is checked lazily and once: a part
// is hashed against its recorded size and SHA-256 before the first row
// this source decodes from it, and re-hashed before the next row
// whenever the file opened differs in size, mtime or identity from the
// one that was hashed; parts no scan reaches are never read. The
// source's Verify method, which VerifyShards calls, is the
// whole-directory proof: it hashes every part, and scans after it do
// not hash the parts it found clean again. An sql directory opens and
// verifies, but does not scan. A scan that starts mid-table seeks by the
// manifest's chunk index (one byte offset per chunk the part was
// written in) and skips less than a chunk; the index is validated when
// the manifest is read and the landing checked when the scan gets
// there, and a directory written before the index existed scans the
// same, from each part's start.
func OpenDirSource(dir string) (*DirSource, error) { return scan.OpenDir(dir) }

// NewRemoteSource returns a Source over a fleet of regeneration servers
// (see Serve): scans stream the summary's runs from the fleet
// (format=spans; the filter is evaluated server-side, the projection
// while filling batches client-side), resume at the exact row offset on
// failure, and fail over across members — which must all serve the same
// summary digest. A table's geometry (columns, row count) is remembered
// from the fleet's last answer for it and checked against the digest of
// each scan's stream; when the fleet has moved to another summary, the
// scan fetches the geometry again before it reads a row.
func NewRemoteSource(servers []string, opts RemoteSourceOptions) (*RemoteSource, error) {
	return scan.NewRemoteSource(servers, opts)
}

// EncodeScan drains sc into w as a self-contained file in a
// materialization format (csv, jsonl, sql, heap, spans) and returns the
// row count. The bytes are identical no matter which backend produced the
// scan; a full-table, unprojected scan encodes exactly the file
// Materialize writes. This is what `hydra scan` prints.
func EncodeScan(w io.Writer, sc *Scan, format string) (int64, error) {
	return scan.EncodeScan(w, sc, format)
}
