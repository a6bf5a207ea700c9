// Package tuplegen implements Hydra's Tuple Generator (§6): the engine-side
// component that replaces a relation's scan operator with on-demand
// generation from the relation summary — the paper's "datagen" feature for
// PostgreSQL v9.3, here implemented against the repo's own engine.
//
// Primary keys are row numbers 1..N. Fetching row r walks the cumulative
// tuple counts of the summary rows; this package maintains an explicit
// prefix-sum array so random access is O(log s) in the number of summary
// rows s (a few hundred) and sequential scans are amortized O(1) per tuple
// — which is why dynamic generation beats disk scans in Fig. 15.
package tuplegen

import (
	"fmt"
	"sort"

	"github.com/dsl-repro/hydra/internal/summary"
)

// Generator produces the tuples of one relation from its summary.
type Generator struct {
	rs     *summary.RelationSummary
	prefix []int64 // prefix[i] = tuples in summary rows [0, i)
	spread bool
}

// SetFKSpread toggles the spread-FK extension: instead of pointing every
// tuple of a summary row at the first referenced row holding the target
// value combination (the paper's deterministic choice, §5.4), foreign keys
// are distributed round-robin across all referenced rows holding that
// combination. Join cardinalities are identical either way — every target
// in the span carries the same attribute values — but spreading removes
// the all-tuples-hit-one-row fan-in, which matters for hash-join build
// sides and index stress. Measured by BenchmarkAblation_FKSpread.
func (g *Generator) SetFKSpread(on bool) { g.spread = on }

// New builds a generator over a relation summary.
func New(rs *summary.RelationSummary) *Generator {
	g := &Generator{rs: rs, prefix: make([]int64, len(rs.Rows)+1)}
	for i, r := range rs.Rows {
		g.prefix[i+1] = g.prefix[i] + r.Count
	}
	return g
}

// NumRows returns the relation's cardinality.
func (g *Generator) NumRows() int64 { return g.prefix[len(g.prefix)-1] }

// NumCols returns the width of generated tuples: pk + non-key columns +
// foreign keys.
func (g *Generator) NumCols() int { return 1 + len(g.rs.Cols) + len(g.rs.FKCols) }

// ColNames returns the column names in tuple order (pk first).
func (g *Generator) ColNames() []string {
	out := make([]string, 0, g.NumCols())
	out = append(out, g.rs.Table+"_pk")
	out = append(out, g.rs.Cols...)
	out = append(out, g.rs.FKCols...)
	return out
}

// fill writes summary row j's values for pk into dst.
func (g *Generator) fill(dst []int64, pk int64, j int) []int64 {
	row := &g.rs.Rows[j]
	dst = dst[:0]
	dst = append(dst, pk)
	dst = append(dst, row.Vals...)
	if g.spread && len(row.FKSpans) == len(row.FKs) {
		off := pk - g.prefix[j] - 1 // position within this summary row
		for i, fk := range row.FKs {
			span := row.FKSpans[i]
			if span > 1 {
				fk += off % span
			}
			dst = append(dst, fk)
		}
		return dst
	}
	dst = append(dst, row.FKs...)
	return dst
}

// Row materializes tuple pk (1-based) into dst, growing it as needed. It
// panics if pk is out of range: generation sits on the query hot path and
// upstream plan logic already bounds the scan.
func (g *Generator) Row(pk int64, dst []int64) []int64 {
	if pk < 1 || pk > g.NumRows() {
		panic(fmt.Sprintf("tuplegen: pk %d out of range [1,%d] for %s", pk, g.NumRows(), g.rs.Table))
	}
	// Find the summary row whose cumulative range contains pk:
	// largest j with prefix[j] < pk.
	j := sort.Search(len(g.prefix), func(i int) bool { return g.prefix[i] >= pk }) - 1
	return g.fill(dst, pk, j)
}

// RowLinear is the O(s) lookup the paper describes literally ("iterate over
// the rows of R̃ and take the cumulative sum until it exceeds r"); kept for
// the tuple-lookup ablation benchmark.
func (g *Generator) RowLinear(pk int64, dst []int64) []int64 {
	if pk < 1 || pk > g.NumRows() {
		panic(fmt.Sprintf("tuplegen: pk %d out of range [1,%d] for %s", pk, g.NumRows(), g.rs.Table))
	}
	var cum int64
	for j := range g.rs.Rows {
		cum += g.rs.Rows[j].Count
		if cum >= pk {
			return g.fill(dst, pk, j)
		}
	}
	panic("tuplegen: inconsistent prefix state")
}
