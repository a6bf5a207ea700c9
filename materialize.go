package hydra

import (
	"github.com/dsl-repro/hydra/internal/matgen"
)

// Materialization: the parallel sharded engine lives in internal/matgen;
// this facade re-exports the option/report types and the entry point so
// clients can turn a summary into big data volumes without touching
// internal packages.
type (
	// MaterializeOptions tunes Materialize: output directory and format
	// (heap, csv, jsonl, sql, discard), worker count, the shard piece to
	// generate, table subset, and the FK-spread toggle. Output bytes are
	// identical for every worker count, and shard pieces concatenate into
	// byte-identical whole-table files.
	MaterializeOptions = matgen.Options
	// MaterializeReport aggregates what one Materialize run produced,
	// including pre-compression RawBytes for capacity planning.
	MaterializeReport = matgen.Report
	// MaterializeSink is the pluggable format interface; custom sinks go
	// in MaterializeOptions.Sink or matgen.RegisterSink. A sink
	// manufactures one MaterializeEncoder per worker per table.
	MaterializeSink = matgen.Sink
	// MaterializeEncoder is the per-worker encoder a sink builds with
	// NewEncoder: it takes summary-row runs (AppendSpan), renders each
	// run's constant columns once and stamps them per row, and carries
	// layout-derived constants and scratch buffers so the steady-state
	// encode path allocates nothing.
	MaterializeEncoder = matgen.Encoder
)

// Materialize generates the summary's relations into the configured sink
// using a deterministic sharded worker pool — the static regeneration
// path at scale (§2's "materialized database", industrialized).
func Materialize(s *Summary, opts MaterializeOptions) (*MaterializeReport, error) {
	return matgen.Materialize(s, opts)
}

// MaterializeFormats lists the built-in and registered sink format names.
func MaterializeFormats() []string { return matgen.SinkNames() }

// MaterializeCompressors lists the registered output codec names (gzip
// built in; others via matgen.RegisterCompressor).
func MaterializeCompressors() []string { return matgen.CompressorNames() }
