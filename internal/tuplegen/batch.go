package tuplegen

import (
	"fmt"
	"strings"
)

// Batch is a column-major block of consecutive generated tuples. Columns
// follow tuple order: pk, non-key columns, then FK columns — the same
// layout Row produces, transposed. Column-major filling is what makes
// batched generation cheap: within one summary row every non-key column is
// a constant-fill and every FK column is a constant- or modular-fill, so
// the per-tuple prefix walk and slice append of the row-at-a-time path
// disappear entirely, and FillSpan writes each constant segment with
// wide stores.
type Batch struct {
	// Start is the primary key of the first tuple in the block.
	Start int64
	// N is the number of valid tuples.
	N int
	// Cols holds one slice per output column, each of length N.
	Cols [][]int64
}

// Truncate keeps the first n rows: N becomes n and every column is
// resliced to it, so a filler that placed fewer rows than it reshaped
// for leaves nothing past N visible (capacity is kept for reuse).
func (b *Batch) Truncate(n int) {
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:n]
	}
	b.N = n
}

// Row copies tuple i (0-based within the batch) into dst, growing it as
// needed — a row-major convenience for consumers that emit tuple-at-a-time.
func (b *Batch) Row(dst []int64, i int) []int64 {
	dst = dst[:0]
	for _, col := range b.Cols {
		dst = append(dst, col[i])
	}
	return dst
}

// Reshape sizes the batch for n rows of ncols columns starting at
// startPK and returns the column slices ready to fill. Buffers are
// reused, and the column count changes without dropping per-column
// allocations — a batch recycled across relations of different widths
// (engines pool them) keeps its capacity. Every filler of batches
// (Batch, BatchCols, the scan backends) shares this one reuse policy.
func (b *Batch) Reshape(ncols, n int, startPK int64) [][]int64 {
	if len(b.Cols) != ncols {
		if cap(b.Cols) < ncols {
			cols := make([][]int64, ncols)
			copy(cols, b.Cols[:cap(b.Cols)])
			b.Cols = cols
		} else {
			b.Cols = b.Cols[:ncols]
		}
	}
	for i := range b.Cols {
		if cap(b.Cols[i]) < n {
			b.Cols[i] = make([]int64, n)
		}
		b.Cols[i] = b.Cols[i][:n]
	}
	b.Start, b.N = startPK, n
	return b.Cols
}

// ProjectCols resolves a column projection against a layout: the
// returned indices map each wanted column onto its position in have, in
// the order requested. A nil or empty want selects every column (nil
// indices, the "no projection" signal BatchCols and every scan backend
// understand). Unknown and duplicate names are errors — a projection
// that silently dropped or doubled a column would corrupt every
// downstream consumer.
func ProjectCols(have, want []string) ([]int, error) {
	if len(want) == 0 {
		return nil, nil
	}
	idx := make([]int, len(want))
	seen := make(map[string]bool, len(want))
	for i, name := range want {
		if seen[name] {
			return nil, fmt.Errorf("duplicate column %q in projection", name)
		}
		seen[name] = true
		pos := -1
		for j, h := range have {
			if h == name {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("no column %q (have %s)", name, strings.Join(have, ", "))
		}
		idx[i] = pos
	}
	return idx, nil
}

// Project resolves a column projection over this generator's tuple
// order (0 is the pk, then non-key columns, then FKs) — ProjectCols
// against ColNames, with the relation named in errors.
func (g *Generator) Project(cols []string) ([]int, error) {
	idx, err := ProjectCols(g.ColNames(), cols)
	if err != nil {
		return nil, fmt.Errorf("tuplegen: %s: %w", g.rs.Table, err)
	}
	return idx, nil
}

// Batch fills b (allocating or reusing its buffers) with up to n tuples
// starting at startPK, clamped to the relation's cardinality, and returns
// it. Passing nil allocates a fresh batch. It is Spans feeding FillSpan:
// the prefix walk happens once per summary-row span instead of once per
// tuple, and each column segment is written by the one fill kernel,
// which is why the materialization engine reads tuples through this API
// rather than Row.
//
// Batch is safe for concurrent use by multiple goroutines as long as each
// uses its own *Batch: the generator itself is only read.
func (g *Generator) Batch(startPK int64, n int, b *Batch) *Batch {
	return g.BatchCols(startPK, n, b, nil)
}

// BatchCols is Batch under a column projection: only the columns named by
// idx (tuple-order positions from Project) are generated, in idx order.
// A nil idx selects every column, making BatchCols(.., nil) identical to
// Batch. The fill is the same Spans + FillSpan walk, so a projected scan
// pays for exactly the columns it reads. Out-of-range indices panic,
// like Row on an out-of-range pk: projections are resolved by Project
// before generation sits on the hot path.
func (g *Generator) BatchCols(startPK int64, n int, b *Batch, idx []int) *Batch {
	if b == nil {
		b = &Batch{}
	}
	ncols := g.NumCols()
	if idx != nil {
		for _, src := range idx {
			if src < 0 || src >= ncols {
				panic(fmt.Sprintf("tuplegen: projection index %d out of range [0,%d) for %s", src, ncols, g.rs.Table))
			}
		}
		ncols = len(idx)
	}
	// Clamp to the relation like Spans does: no rows before pk 1 or past
	// the last.
	startPK = max(startPK, 1)
	n = int(min(int64(max(n, 0)), max(g.NumRows()-startPK+1, 0)))
	cols := b.Reshape(ncols, n, startPK)
	at := 0
	it := g.Spans(startPK, int64(n))
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		at = FillSpan(cols, at, &sp, idx)
	}
	return b
}

// FillSpan materializes sp's tuples into column-major storage starting
// at row offset at, one destination column per entry of cols. idx
// selects the source column for each destination in tuple order (0 =
// pk, then values, then FKs); nil means the identity layout. Every
// destination column must have capacity at+sp.N. Returns at+sp.N, the
// next free row. sp is only read: passing it by pointer spares a
// run-sized copy per call, which a reader of short runs would notice.
//
// It is the one kernel that turns summary runs into batch columns —
// Batch, BatchCols and every scan backend fill through it. A constant
// column (every non-key value, and every FK outside spread mode) is
// written with wide stores: one element, then doubling copies, so
// memmove's vector stores do the work instead of one store per value.
//
//hydra:hotpath
func FillSpan(cols [][]int64, at int, sp *Span, idx []int) int {
	n := int(sp.N)
	nvals := len(sp.Vals)
	for c := range cols {
		src := c
		if idx != nil {
			src = idx[c]
		}
		col := cols[c][at : at+n]
		switch {
		case src == 0:
			for i := range col {
				col[i] = sp.Start + int64(i)
			}
		case src <= nvals:
			fillConst(col, sp.Vals[src-1])
		default:
			k := src - 1 - nvals
			if sp.FKSpans != nil && sp.FKSpans[k] > 1 {
				fillCycle(col, sp.FKs[k], sp.FKSpans[k], sp.Off)
			} else {
				fillConst(col, sp.FKs[k])
			}
		}
	}
	return at + n
}

// fillConst sets every element of col to v: one store, then each copy
// doubles the filled prefix.
//
//hydra:hotpath
func fillConst(col []int64, v int64) {
	if len(col) == 0 {
		return
	}
	col[0] = v
	for k := 1; k < len(col); k *= 2 {
		copy(col[k:], col[:k])
	}
}

// fillCycle writes the spread-FK sawtooth of a run whose first tuple sits
// at offset off of its summary row: element i is fk+(off+i)%span. The
// phase is one division per run; after that a counter wraps at span.
//
//hydra:hotpath
func fillCycle(col []int64, fk, span, off int64) {
	p := off % span
	for i := range col {
		col[i] = fk + p
		if p++; p == span {
			p = 0
		}
	}
}
