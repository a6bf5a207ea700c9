package tuplegen

import "sort"

// Span is one maximal run of consecutive tuples drawn from a single
// summary row. Within a run the primary key increments by one per tuple,
// every non-key column is constant, and every foreign key is either
// constant or a modular fill — which is exactly the structure a run-aware
// encoder exploits: render the constant column tail once, then stamp it
// per tuple with an incrementing primary key, instead of re-encoding
// O(rows x cols) individual values.
type Span struct {
	// Start is the primary key of the run's first tuple.
	Start int64
	// N is the number of tuples in the run.
	N int64
	// Vals are the non-key column values, constant across the run. The
	// slice aliases the summary row; callers must not modify it.
	Vals []int64
	// FKs are the base foreign-key values (the first referenced row of
	// each span). When FKSpans is nil they are constant across the run.
	FKs []int64
	// FKSpans is non-nil only in spread-FK mode: foreign key column c of
	// tuple i (0-based within the run) is FKs[c]+(Off+i)%FKSpans[c] when
	// FKSpans[c] > 1, and the constant FKs[c] otherwise. The slice
	// aliases the summary row; callers must not modify it.
	FKSpans []int64
	// Off is the 0-based offset of the run's first tuple within its
	// summary row — the phase of the modular FK fills above.
	Off int64
}

// At returns column c of the run's tuple i (0-based within the run), in
// span order: 0 is the pk, then Vals, then FKs — the order FillSpan's
// idx selects from.
//
//hydra:hotpath
func (sp *Span) At(c int, i int64) int64 {
	switch k := c - 1 - len(sp.Vals); {
	case c == 0:
		return sp.Start + i
	case k < 0:
		return sp.Vals[c-1]
	case sp.Spreads(c):
		return sp.FKs[k] + (sp.Off+i)%sp.FKSpans[k]
	default:
		return sp.FKs[k]
	}
}

// Spreads reports whether span-order column c is a spread FK, varying
// across the run as a modular fill. Every other column but the pk is the
// same on every tuple of the run.
func (sp *Span) Spreads(c int) bool {
	k := c - 1 - len(sp.Vals)
	return k >= 0 && sp.FKSpans != nil && sp.FKSpans[k] > 1
}

// SpanIter walks the summary-row spans covering a pk range. It is a
// value type and Next returns spans by value, so iteration allocates
// nothing even when the spans flow into an interface method; each worker
// keeps its own iterator on the stack.
type SpanIter struct {
	g   *Generator
	pk  int64 // next pk to emit
	end int64 // one past the last pk
	j   int   // summary row containing pk (valid while pk < end)
}

// Spans returns an iterator over the summary-row spans covering up to n
// tuples starting at startPK, clamped to the relation's cardinality —
// the run-structure view of the same range Batch materializes, under
// the same clamping rules.
func (g *Generator) Spans(startPK, n int64) SpanIter {
	if startPK < 1 {
		startPK = 1
	}
	if last := g.NumRows(); startPK+n-1 > last {
		n = last - startPK + 1
	}
	it := SpanIter{g: g, pk: startPK, end: startPK + n}
	if n > 0 {
		it.j = sort.Search(len(g.prefix), func(i int) bool { return g.prefix[i] >= startPK }) - 1
	}
	return it
}

// Next returns the next span and true, or a zero Span and false when the
// range is exhausted.
//
//hydra:hotpath
func (it *SpanIter) Next() (Span, bool) {
	if it.pk >= it.end {
		return Span{}, false
	}
	g := it.g
	row := &g.rs.Rows[it.j]
	m := g.prefix[it.j+1] - it.pk + 1 // tuples left in summary row j
	if rem := it.end - it.pk; m > rem {
		m = rem
	}
	sp := Span{Start: it.pk, N: m, Vals: row.Vals, FKs: row.FKs, Off: it.pk - g.prefix[it.j] - 1}
	if g.spread && len(row.FKSpans) == len(row.FKs) {
		sp.FKSpans = row.FKSpans
	}
	it.pk += m
	it.j++
	return sp, true
}
