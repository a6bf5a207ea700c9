// Package hydra is a from-scratch Go implementation of HYDRA, the
// workload-dependent database regenerator of Sanghi, Sood, Haritsa and
// Tirthapura, "Scalable and Dynamic Regeneration of Big Data Volumes"
// (EDBT 2018).
//
// Given a relational schema and a set of cardinality constraints (CCs)
// derived from the client's annotated query plans, Regenerate produces a
// minuscule database summary whose size is independent of the data scale.
// The summary can be materialized into a static database or used to
// generate tuples on-the-fly during query execution, while preserving
// volumetric similarity: every operator in every workload plan emits
// (almost exactly) the same row count as at the client.
//
// The package is a thin facade; the pipeline lives in internal packages:
//
//	preprocess  relation → view transformation (from DataSynth)
//	viewgraph   chordal decomposition into sub-views
//	partition   region partitioning (the paper's core contribution)
//	lp          exact simplex + branch and bound (the Z3 substitute)
//	core        per-view LP formulation and solving
//	summary     align/merge, referential consistency, relation summaries
//	tuplegen    dynamic tuple generation (the engine-side "datagen" scan)
//	matgen      parallel sharded materialization into a fixed set of formats
//	serve       the HTTP data plane and fleet runner
//	scan        the unified Source/Scan read path over summaries,
//	            materialized directories, and serve fleets
package hydra

import (
	"context"
	"fmt"
	"time"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// Re-exported aliases: the full data model is usable through this package
// alone, which matters because the implementation packages are internal.
type (
	// Schema and friends describe the client database layout.
	Schema     = schema.Schema
	Table      = schema.Table
	Column     = schema.Column
	ForeignKey = schema.ForeignKey
	AttrRef    = schema.AttrRef

	// CC is a cardinality constraint; Workload is the set shipped by the
	// client.
	CC       = cc.CC
	Workload = cc.Workload

	// Summary is the scale-independent database summary; Generator
	// produces tuples from one relation summary. A summary names exactly
	// one database: its FK-spread setting is part of the document, and so
	// of its digest.
	Summary         = summary.Summary
	RelationSummary = summary.RelationSummary
	ViewSummary     = summary.ViewSummary
	Generator       = tuplegen.Generator
	CCReport        = summary.CCReport
)

// NewSchema validates and builds a schema.
func NewSchema(tables ...*Table) (*Schema, error) { return schema.New(tables...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(tables ...*Table) *Schema { return schema.MustNew(tables...) }

// Config tunes Regenerate.
type Config struct {
	// Strict disables the soft (L1-minimizing) fallback for inconsistent
	// CC sets; Regenerate then fails instead of producing a best-effort
	// summary.
	Strict bool
}

// Result bundles the regeneration outputs.
type Result struct {
	// Summary is the database summary (deliverable of §5).
	Summary *Summary
	// Views retains the preprocessed view definitions, needed to
	// evaluate CCs against the summary.
	Views map[string]*preprocess.View
	// BuildTime is the end-to-end summary construction wall time; the
	// paper's headline claim is that this does not depend on data scale.
	BuildTime time.Duration
	// TotalVars sums LP variables across views (Fig. 12/17 metric).
	TotalVars int
	// SolveTime is the sum of the per-view LP solve times (Fig. 13
	// metric, compared with DataSynth's sequential sum). Views are
	// solved concurrently, so it can exceed BuildTime.
	SolveTime time.Duration
}

// Regenerate runs the full vendor-side pipeline of Fig. 2: preprocess the
// CCs into views, formulate and solve one LP per view using region
// partitioning, and build the database summary. It is RegenerateContext
// without cancellation.
func Regenerate(s *Schema, w *Workload, cfg Config) (*Result, error) {
	return RegenerateContext(context.Background(), s, w, cfg)
}

// RegenerateContext is Regenerate under a cancellation context, making
// the vendor-side pipeline abortable like every other facade entry
// point. Cancellation is observed between pipeline stages and between
// per-view LP solves — the granularity at which the pipeline makes
// progress — so a timed-out regeneration returns the context's error
// promptly instead of finishing a run nobody will read.
//
// The per-view LPs are solved concurrently on GOMAXPROCS workers, and
// each worker aligns and merges the views it solved into view summaries
// (summary.BuildView) before the summary is assembled from them. The
// summary does not depend on the worker count, and when views fail the
// error is the one of the first failing view in topological order.
func RegenerateContext(ctx context.Context, s *Schema, w *Workload, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := w.Validate(s); err != nil {
		return nil, fmt.Errorf("hydra: %w", err)
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		return nil, fmt.Errorf("hydra: %w", err)
	}
	opts := core.Options{NoSoftFallback: cfg.Strict}
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	ordered := make([]*preprocess.View, len(order))
	for i, t := range order {
		ordered[i] = views[t.Name]
	}
	built := make([]*summary.ViewSummary, len(ordered))
	solved, err := core.SolveViews(ctx, ordered, opts, func(i int, sol *core.ViewSolution) (err error) {
		built[i], err = summary.BuildView(ordered[i], sol)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("hydra: %w", err)
	}
	vsums := make(map[string]*summary.ViewSummary, len(order))
	stats := make(map[string]core.ViewStats, len(order))
	res := &Result{Views: views}
	for i, t := range order {
		vsums[t.Name] = built[i]
		stats[t.Name] = solved[i].Stats
		res.TotalVars += solved[i].Stats.Vars
		res.SolveTime += solved[i].Stats.SolveTime
	}
	sum, err := summary.BuildFromViewSummaries(s, views, vsums, stats)
	if err != nil {
		return nil, fmt.Errorf("hydra: %w", err)
	}
	res.Summary = sum
	res.BuildTime = time.Since(start)
	return res, nil
}

// Evaluate measures volumetric similarity: the achieved count and relative
// error of every workload CC against the regenerated summary.
func (r *Result) Evaluate(w *Workload) ([]CCReport, error) {
	return summary.Evaluate(r.Summary, r.Views, w)
}

// ErrorCDF computes the percentage of CCs within each |relative error|
// threshold, the presentation used by the paper's Fig. 10.
func ErrorCDF(reports []CCReport, thresholds []float64) []float64 {
	return summary.ErrorCDF(reports, thresholds)
}
