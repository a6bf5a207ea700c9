package partition

import (
	"math/big"

	"github.com/dsl-repro/hydra/internal/pred"
)

// Grid implements DataSynth's grid-partitioning strategy (§3.2): each
// dimension is intervalized at every constant appearing in the constraints,
// and the sub-view domain becomes the full cross product of the per-
// dimension intervals — one LP variable per cell. The paper's Figures 3a/4a
// show the strategy on the "Person" example (16 cells where region
// partitioning needs 4 regions).
//
// The number of cells is ∏ᵢ ℓᵢ and explodes combinatorially (10¹¹ for the
// TPC-DS item table under WLc, Fig. 12), so cells are only materialized on
// demand and under a cap; the analytic count is always available.
type Grid struct {
	// DimIntervals[i] lists the intervals dimension i was cut into.
	DimIntervals [][]pred.Interval
	// Cells is ∏ len(DimIntervals[i]), computed without enumeration.
	Cells *big.Int
}

// NewGrid intervalizes each dimension of the space at the boundaries of
// every conjunct restriction, exactly as DataSynth does.
func NewGrid(space []pred.Set, cons []pred.DNF) *Grid {
	var conjuncts []pred.Conjunct
	for _, c := range cons {
		conjuncts = append(conjuncts, c.Terms...)
	}
	g := &Grid{Cells: big.NewInt(1)}
	for dim, domain := range space {
		atoms := Atoms(domain, conjuncts, dim)
		g.DimIntervals = append(g.DimIntervals, atoms)
		g.Cells.Mul(g.Cells, big.NewInt(int64(len(atoms))))
	}
	return g
}

// Enumerable reports whether the grid has at most maxCells cells, i.e.
// whether an LP over its variables can be formulated at all. DataSynth's
// solver "crash" on WLc (Fig. 13) is modeled by this returning false.
func (g *Grid) Enumerable(maxCells int64) bool {
	return g.Cells.IsInt64() && g.Cells.Int64() <= maxCells
}

// EnumerateCells materializes every grid cell as a single-box Block, in
// row-major dimension order. Callers must check Enumerable first; the
// method panics on absurd cell counts to protect against accidental
// exabyte-scale allocations.
func (g *Grid) EnumerateCells(maxCells int64) []Block {
	if !g.Enumerable(maxCells) {
		panic("partition: grid not enumerable within cap")
	}
	total := g.Cells.Int64()
	n := len(g.DimIntervals)
	out := make([]Block, 0, total)
	idx := make([]int, n)
	for {
		dims := make([]pred.Set, n)
		for i, k := range idx {
			dims[i] = pred.NewSet(g.DimIntervals[i][k])
		}
		out = append(out, Block{Dims: dims})
		// Advance the mixed-radix counter.
		d := n - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(g.DimIntervals[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// CellRegions wraps enumerated grid cells as single-block Regions labeled
// against the constraints, so the same LP formulator can consume either
// partitioning strategy (the region-vs-grid ablation of Fig. 12/13 swaps
// only this step).
func (g *Grid) CellRegions(cons []pred.DNF, maxCells int64) []Region {
	cells := g.EnumerateCells(maxCells)
	out := make([]Region, len(cells))
	for i, b := range cells {
		rep := b.Rep()
		lbl := newLabel(len(cons))
		for j, c := range cons {
			if c.Eval(rep) {
				lbl.set(j)
			}
		}
		out[i] = Region{Blocks: []Block{b}, Label: lbl, corner: rep}
	}
	return out
}
