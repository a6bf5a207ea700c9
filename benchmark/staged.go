package main

import (
	"fmt"

	"github.com/dsl-repro/hydra"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/summary"
)

// stagedResult is what one staged pipeline run produced, with the
// program's own counts from each stage.
type stagedResult struct {
	sum     *hydra.Summary
	views   map[string]*preprocess.View
	reports []hydra.CCReport

	lpVars, lpRows, subViews int // core.Formulation.Stats, summed over views
	pivots, nodes, softViews int // core.ViewSolution.Stats, summed over views
}

// stagedRegenerate is hydra.RegenerateContext taken apart at its module
// boundaries, with a span around each call: preprocess.BuildViews, then
// per view core.FormulateWith and Formulation.SolveSequential, then
// summary.Build and summary.Evaluate. It must stay the same sequence of
// calls as the facade; the ladder asserts the two produce one digest.
func stagedRegenerate(in input, rec *recorder, parent handle) (*stagedResult, error) {
	if err := in.wl.Validate(in.schema); err != nil {
		return nil, err
	}
	h := rec.child(parent, "preprocess.build_views")
	views, err := preprocess.BuildViews(in.schema, in.wl)
	rec.end(h, int64(len(views)), 0)
	if err != nil {
		return nil, err
	}
	order, err := in.schema.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &stagedResult{views: views}
	sols := make(map[string]*core.ViewSolution, len(views))
	for _, t := range order {
		v := views[t.Name]
		h = rec.child(parent, "core.formulate")
		f, err := core.FormulateWith(v, core.RegionStrategy)
		rec.end(h, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("formulate %s: %w", t.Name, err)
		}
		res.lpVars += f.Stats.Vars
		res.lpRows += f.Stats.Rows
		res.subViews += f.Stats.SubViews
		h = rec.child(parent, "lp.solve")
		sol, err := f.SolveSequential(core.Options{})
		rec.end(h, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("solve %s: %w", t.Name, err)
		}
		res.pivots += sol.Stats.Pivots
		res.nodes += sol.Stats.Nodes
		if sol.Stats.Soft {
			res.softViews++
		}
		sols[t.Name] = sol
	}
	h = rec.child(parent, "summary.build")
	res.sum, err = summary.Build(in.schema, views, sols)
	rec.end(h, 0, 0)
	if err != nil {
		return nil, err
	}
	h = rec.child(parent, "summary.evaluate")
	res.reports, err = summary.Evaluate(res.sum, views, in.wl)
	rec.end(h, int64(len(res.reports)), 0)
	if err != nil {
		return nil, err
	}
	return res, nil
}
