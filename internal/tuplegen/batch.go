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
// wide stores — once per run: a batch remembers, per column, the stretch
// of its memory that already holds one value, and a refill with that
// value stores only what lies outside it. The pk is stored on every fill,
// sixteen values per unrolled pass; a spread FK is one period stored the
// same way, then copied.
//
// The columns are read-only to everyone but the batch's filler: a scan
// hands the same batch (and the values its memory holds) from one fill to
// the next. A caller that writes into a batch's columns, or fills them by
// any means but FillSpan, must call Forget before the next FillSpan.
type Batch struct {
	// Start is the primary key of the first tuple in the block.
	Start int64
	// N is the number of valid tuples.
	N int
	// Cols holds one slice per output column, each of length N.
	Cols [][]int64
	// held[c] is what column c's backing array is known to hold, kept
	// for every column Reshape keeps, in use at this width or not.
	held []held
}

// held records that a column's backing array holds v at every index in
// [lo, hi); lo == hi records nothing. It is a fact about memory, not
// about a table, so it outlives a scan, a width change or a projection
// for as long as the array does.
type held struct {
	v      int64
	lo, hi int
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
// (engines pool them) keeps its capacity, and what each kept column's
// memory holds. Every filler of batches (Batch, the scan backends) shares
// this one reuse policy.
func (b *Batch) Reshape(ncols, n int, startPK int64) [][]int64 {
	if cap(b.Cols) < ncols {
		cols := make([][]int64, ncols)
		copy(cols, b.Cols[:cap(b.Cols)])
		b.Cols = cols
	}
	if cap(b.held) < ncols {
		held := make([]held, ncols)
		copy(held, b.held[:cap(b.held)])
		b.held = held
	}
	b.Cols, b.held = b.Cols[:ncols], b.held[:ncols]
	for i := range b.Cols {
		if cap(b.Cols[i]) < n {
			b.Cols[i] = make([]int64, n)
			b.held[i] = held{}
		}
		b.Cols[i] = b.Cols[i][:n]
	}
	b.Start, b.N = startPK, n
	return b.Cols
}

// Forget drops what the batch knows its columns' memory holds, so the
// next FillSpan stores every value. A filler that writes columns without
// FillSpan calls it after Reshape.
func (b *Batch) Forget() {
	clear(b.held[:cap(b.held)])
}

// ProjectCols resolves a column projection against a layout: the
// returned indices map each wanted column onto its position in have, in
// the order requested. A nil or empty want selects every column (nil
// indices, the "no projection" signal FillSpan and every scan backend
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
// tuple, and each column segment is written by the one fill kernel. A
// projected or filtered fill calls FillSpan itself, with the projection's
// idx.
//
// Batch is safe for concurrent use by multiple goroutines as long as each
// uses its own *Batch: the generator itself is only read.
func (g *Generator) Batch(startPK int64, n int, b *Batch) *Batch {
	if b == nil {
		b = &Batch{}
	}
	// Clamp to the relation like Spans does: no rows before pk 1 or past
	// the last.
	startPK = max(startPK, 1)
	n = int(min(int64(max(n, 0)), max(g.NumRows()-startPK+1, 0)))
	b.Reshape(g.NumCols(), n, startPK)
	at := 0
	it := g.Spans(startPK, int64(n))
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		at = b.FillSpan(at, &sp, nil)
	}
	return b
}

// FillSpan materializes sp's tuples into the batch's columns starting at
// row offset at. idx selects the source column for each column of the
// batch in tuple order (0 = pk, then values, then FKs); nil means the
// identity layout. The batch must be shaped by Reshape for at least
// at+sp.N rows. Returns at+sp.N, the next free row. sp is only read:
// passing it by pointer spares a run-sized copy per call, which a reader
// of short runs would notice.
//
// It is the one kernel that turns summary runs into batch columns —
// Batch and every scan backend fill through it. A constant column (every
// non-key value, and every FK outside spread mode) is stored only where
// the column's memory is not already known to hold its value, so a run
// that goes on through a recycled batch's cells is stored once; what is
// stored goes with wide stores: one element, then doubling copies, so
// memmove's vector stores do the work instead of one store per value.
//
//hydra:hotpath
func (b *Batch) FillSpan(at int, sp *Span, idx []int) int {
	hi := at + int(sp.N)
	nvals := len(sp.Vals)
	held := b.held[:len(b.Cols)]
	for c, col := range b.Cols {
		src := c
		if idx != nil {
			src = idx[c]
		}
		h := &held[c]
		var v int64
		switch k := src - 1 - nvals; {
		case src == 0:
			fillPK(col[at:hi], sp.Start)
			h.cut(at, hi)
			continue
		case k < 0:
			v = sp.Vals[src-1]
		case sp.FKSpans != nil && sp.FKSpans[k] > 1:
			fillCycle(col[at:hi], sp.FKs[k], sp.FKSpans[k], sp.Off)
			h.cut(at, hi)
			continue
		default:
			v = sp.FKs[k]
		}
		if h.v != v || at < h.lo || h.hi < at {
			h.fill(col, at, hi, v)
		} else if hi > h.hi {
			// The record reaches the range: store what lies past it.
			fillConst(col[h.hi:hi], v)
			h.hi = hi
		}
	}
	return hi
}

// fill is FillSpan's store of v over [lo, hi) when the record does not
// reach lo. A record of v that starts inside the range grows to cover
// it, and only the range's parts outside the record are stored; any
// other record is replaced by the range, stored whole.
//
//hydra:hotpath
func (h *held) fill(col []int64, lo, hi int, v int64) {
	if h.v != v || hi < h.lo || h.hi < lo {
		fillConst(col[lo:hi], v)
		*h = held{v: v, lo: lo, hi: hi}
		return
	}
	fillConst(col[lo:h.lo], v)
	h.lo = lo
	if hi > h.hi {
		fillConst(col[h.hi:hi], v)
		h.hi = hi
	}
}

// cut drops [lo, hi), which other values were just stored over, from the
// record; of what is left on either side, the longer part is kept.
//
//hydra:hotpath
func (h *held) cut(lo, hi int) {
	if lo >= hi || hi <= h.lo || h.hi <= lo {
		return
	}
	switch left, right := lo-h.lo, h.hi-hi; {
	case left <= 0 && right <= 0:
		*h = held{}
	case left >= right:
		h.hi = lo
	default:
		h.lo = hi
	}
}

// fillPK writes the pks start, start+1, ... into col. start comes by
// value so the loop keeps it in a register instead of reloading it from
// the span on every store. Each pass stores sixteen values into a
// 16-element reslice at constant indices: no bounds check, one add per
// value off one register and one loop branch per sixteen stores, so the
// stores, not the loop's bookkeeping, set its pace wherever the linker
// places it. A plain loop stores the last len(col)%16.
//
//hydra:hotpath
func fillPK(col []int64, start int64) {
	for len(col) >= 16 {
		c := col[:16:16]
		c[0] = start
		c[1] = start + 1
		c[2] = start + 2
		c[3] = start + 3
		c[4] = start + 4
		c[5] = start + 5
		c[6] = start + 6
		c[7] = start + 7
		c[8] = start + 8
		c[9] = start + 9
		c[10] = start + 10
		c[11] = start + 11
		c[12] = start + 12
		c[13] = start + 13
		c[14] = start + 14
		c[15] = start + 15
		col = col[16:]
		start += 16
	}
	for i := range col {
		col[i] = start + int64(i)
	}
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
// at offset off >= 0 of its summary row: element i is fk+(off+i)%span. The
// phase p = off%span is one division per run. fillPK writes the first
// period in at most two ascending segments, fk+p … fk+span-1 then
// fk … fk+p-1. Then, as fillConst does for a period of one, each copy
// doubles the filled prefix — a whole number of periods — so memmove's
// wide stores write the rest.
//
//hydra:hotpath
func fillCycle(col []int64, fk, span, off int64) {
	p, n := off%span, int64(len(col))
	head := int(min(n, span-p))
	fillPK(col[:head], fk+p)
	k := int(min(n, span))
	fillPK(col[head:k], fk)
	for ; k < len(col); k *= 2 {
		copy(col[k:], col[:k])
	}
}
