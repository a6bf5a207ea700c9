package hydra

import (
	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
)

// Materialization: the parallel sharded engine lives in internal/matgen;
// this facade re-exports the option/report types and the entry point so
// clients can turn a summary into big data volumes without touching
// internal packages.
type (
	// MaterializeOptions tunes Materialize: output directory and format
	// (heap, csv, jsonl, sql, discard), worker count, the shard piece to
	// generate, and table subset. Output bytes are identical for every
	// worker count, and shard pieces concatenate into byte-identical
	// whole-table files. Whether FKs spread is the summary's setting.
	MaterializeOptions = matgen.Options
	// MaterializeReport aggregates what one Materialize run produced,
	// including pre-compression RawBytes for capacity planning.
	MaterializeReport = matgen.Report
)

// Materialize generates the summary's relations as files in opts.Format
// using a deterministic sharded worker pool — the static regeneration
// path at scale (§2's "materialized database", industrialized).
func Materialize(s *Summary, opts MaterializeOptions) (*MaterializeReport, error) {
	return matgen.Materialize(s, opts)
}

// MaterializeFormats lists the output format names, sorted. The set is
// fixed: csv, discard, heap, jsonl, spans and sql.
func MaterializeFormats() []string { return format.Names() }

// MaterializeCompressors lists the output codec names: gzip, the one
// codec.
func MaterializeCompressors() []string { return matgen.CompressorNames() }
