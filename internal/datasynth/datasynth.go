// Package datasynth re-implements the DataSynth regenerator of Arasu et
// al. [6,7] as the paper describes it, serving as the comparative yardstick
// of the evaluation (§7 uses "our implementation of DataSynth"). The two
// deliberate differences from Hydra are exactly the ones the paper
// isolates:
//
//   - grid partitioning: each sub-view's domain is intervalized per
//     attribute and shattered into the full cross product of cells, one LP
//     variable per cell (§3.2, Fig. 3a/4a) — variable counts explode
//     combinatorially and the solver "crashes" on complex workloads
//     (modeled here as a capacity cap, Fig. 13);
//   - sampling-based instantiation: instead of Hydra's deterministic
//     align-and-merge, view tuples are drawn probabilistically from the
//     sub-view joint/conditional distributions (§5.1), which costs time
//     proportional to the data volume and introduces multinomial error in
//     CC satisfaction (Fig. 10) that is further amplified by the
//     referential-integrity repair (Fig. 11).
package datasynth

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/dsl-repro/hydra/internal/cc"
	"github.com/dsl-repro/hydra/internal/core"
	"github.com/dsl-repro/hydra/internal/partition"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/preprocess"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// DefaultMaxCells is the modeled solver capacity: grids larger than this
// per sub-view cannot be formulated. The paper reports Z3 crashing beyond
// roughly a million variables; we keep the same order of magnitude.
const DefaultMaxCells = 1_000_000

// ErrSolverCapacity reports that grid partitioning produced more LP
// variables than the solver can hold — the WLc "crash" of Fig. 13.
type ErrSolverCapacity struct {
	View  string
	Cells *big.Int
}

func (e *ErrSolverCapacity) Error() string {
	return fmt.Sprintf("datasynth: view %s: grid has %v cells, beyond solver capacity", e.View, e.Cells)
}

// Options configures the baseline.
type Options struct {
	// Seed drives the sampling instantiation.
	Seed int64
}

// GridStrategy returns a core.Strategy that partitions with DataSynth's
// grid, failing with ErrSolverCapacity when the grid exceeds maxCells.
func GridStrategy(view string, maxCells int64) core.Strategy {
	return func(space []pred.Set, cons []pred.DNF) ([]partition.Region, error) {
		g := partition.NewGrid(space, cons)
		if !g.Enumerable(maxCells) {
			return nil, &ErrSolverCapacity{View: view, Cells: g.Cells}
		}
		return g.CellRegions(cons, maxCells), nil
	}
}

// GridVars computes, without enumeration, the number of LP variables grid
// partitioning creates for a view: the sum over sub-views of the cell-count
// product. This is the Fig. 12 / Fig. 17 comparison quantity, computable
// even when it reaches 10¹¹.
func GridVars(v *preprocess.View) *big.Int {
	total := new(big.Int)
	for _, in := range core.SubViewInputs(v) {
		g := partition.NewGrid(in.Space, in.Cons)
		total.Add(total, g.Cells)
	}
	return total
}

// Result is the outcome of the DataSynth pipeline.
type Result struct {
	Summary   *summary.Summary
	Views     map[string]*preprocess.View
	TotalVars *big.Int
	SolveTime time.Duration
	// SampleTime is the view-instantiation (sampling) time, the dominant
	// cost at scale (Fig. 14).
	SampleTime time.Duration
	BuildTime  time.Duration
}

// Regenerate runs the full DataSynth pipeline: preprocess (shared with
// Hydra), grid-partitioned LP per view, sampling-based view instantiation,
// then the shared referential-repair and relation-extraction tail.
func Regenerate(s *schema.Schema, w *cc.Workload, opts Options) (*Result, error) {
	start := time.Now()
	if err := w.Validate(s); err != nil {
		return nil, err
	}
	views, err := preprocess.BuildViews(s, w)
	if err != nil {
		return nil, err
	}
	res := &Result{Views: views, TotalVars: new(big.Int)}
	rng := rand.New(rand.NewSource(opts.Seed))

	vsums := map[string]*summary.ViewSummary{}
	stats := map[string]core.ViewStats{}
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, t := range order {
		v := views[t.Name]
		res.TotalVars.Add(res.TotalVars, GridVars(v))
		f, err := core.FormulateWith(v, GridStrategy(t.Name, DefaultMaxCells))
		if err != nil {
			var cap *ErrSolverCapacity
			if errors.As(err, &cap) {
				return nil, cap
			}
			return nil, err
		}
		sol, err := f.SolveSequential(core.Options{})
		if err != nil {
			return nil, err
		}
		res.SolveTime += sol.Stats.SolveTime
		sampleStart := time.Now()
		vs, err := sampleViewSummary(v, sol, rng)
		if err != nil {
			return nil, fmt.Errorf("datasynth: view %s: %w", t.Name, err)
		}
		res.SampleTime += time.Since(sampleStart)
		vsums[t.Name] = vs
		stats[t.Name] = sol.Stats
	}
	sum, err := summary.BuildFromViewSummaries(s, views, vsums, stats)
	if err != nil {
		return nil, err
	}
	res.Summary = sum
	res.BuildTime = time.Since(start)
	return res, nil
}
