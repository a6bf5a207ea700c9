package tuplegen

import (
	"fmt"

	"github.com/dsl-repro/hydra/internal/pred"
)

// SpanFilter is a conjunction of per-column interval-set restrictions
// bound to a generator's tuple layout, evaluated at span granularity:
// a span whose constant columns fail the filter is dropped wholesale
// without touching its rows, a pk restriction slices the span down to
// the matching key intervals by arithmetic alone, and only constrained
// spread-FK columns — the one per-row varying case — fall back to
// per-row evaluation, re-coalesced into maximal passing runs. This is
// the pushdown primitive every read-path backend shares.
//
// Non-key columns are addressed by their position in a span's tail,
// Vals followed by FKs, wherever the span splits the two: a span a
// reader rebuilt from stored bytes, which cannot tell a value from a
// constant FK, is clipped exactly like the span the generator produced.
type SpanFilter struct {
	pk    pred.Set
	hasPK bool
	tail  []colSet // indexed like Vals ++ FKs
}

type colSet struct {
	set pred.Set
	ok  bool
}

// NewSpanFilter binds a positional conjunct to a tuple layout with
// nvals value columns and nfks foreign-key columns (attribute 0 is the
// primary key, then values, then FKs — the Generator.ColNames order).
// It returns nil for an unconstrained conjunct, so a nil *SpanFilter
// uniformly means "no filtering". Attributes outside the layout are an
// error.
func NewSpanFilter(c pred.Conjunct, nvals, nfks int) (*SpanFilter, error) {
	attrs := c.Attrs()
	if len(attrs) == 0 {
		return nil, nil
	}
	f := &SpanFilter{tail: make([]colSet, nvals+nfks)}
	for _, a := range attrs {
		s, _ := c.Restriction(a)
		switch {
		case a == 0:
			f.pk, f.hasPK = s, true
		case a <= nvals+nfks:
			f.tail[a-1] = colSet{set: s, ok: true}
		default:
			return nil, fmt.Errorf("tuplegen: filter attribute %d outside layout (1 pk + %d vals + %d fks)", a, nvals, nfks)
		}
	}
	return f, nil
}

// BindSpanFilter binds a positional conjunct to this generator's tuple
// layout — the Conjunct's attribute indices must index ColNames().
func (g *Generator) BindSpanFilter(c pred.Conjunct) (*SpanFilter, error) {
	return NewSpanFilter(c, len(g.rs.Cols), len(g.rs.FKCols))
}

// Clip appends to dst the maximal sub-spans of sp whose rows all
// satisfy the filter, in pk order.
func (f *SpanFilter) Clip(dst []Span, sp Span) []Span {
	perRow := false
	for c, cs := range f.tail {
		switch {
		case !cs.ok:
		case sp.Spreads(c + 1):
			perRow = true // varies across the run; checked row by row
		case !cs.set.Contains(sp.At(c+1, 0)):
			return dst
		}
	}
	last := sp.Start + sp.N - 1
	if !f.hasPK {
		return f.emit(dst, sp, sp.Start, last, perRow)
	}
	for _, iv := range f.pk.Intervals() {
		if iv.Hi < sp.Start {
			continue
		}
		if iv.Lo > last {
			break
		}
		a, b := iv.Lo, iv.Hi
		if a < sp.Start {
			a = sp.Start
		}
		if b > last {
			b = last
		}
		dst = f.emit(dst, sp, a, b, perRow)
	}
	return dst
}

// emit appends the pk slice [a,b] of sp, either whole or — when a
// constrained spread-FK column varies per row — re-coalesced into the
// maximal runs that pass.
func (f *SpanFilter) emit(dst []Span, sp Span, a, b int64, perRow bool) []Span {
	sub := sp
	sub.Start, sub.N, sub.Off = a, b-a+1, sp.Off+(a-sp.Start)
	if !perRow {
		return append(dst, sub)
	}
	runStart := int64(-1)
	for i := int64(0); i < sub.N; i++ {
		pass := true
		for c, cs := range f.tail {
			if !cs.ok || !sp.Spreads(c+1) {
				continue // constant; already checked
			}
			if !cs.set.Contains(sub.At(c+1, i)) {
				pass = false
				break
			}
		}
		switch {
		case pass && runStart < 0:
			runStart = i
		case !pass && runStart >= 0:
			r := sub
			r.Start, r.N, r.Off = sub.Start+runStart, i-runStart, sub.Off+runStart
			dst = append(dst, r)
			runStart = -1
		}
	}
	if runStart >= 0 {
		r := sub
		r.Start, r.N, r.Off = sub.Start+runStart, sub.N-runStart, sub.Off+runStart
		dst = append(dst, r)
	}
	return dst
}

// FilteredSpanIter walks the sub-spans of a pk range that satisfy a
// SpanFilter — the filtered twin of SpanIter. A nil filter degenerates
// to plain span iteration.
type FilteredSpanIter struct {
	it  SpanIter
	f   *SpanFilter
	buf []Span
	i   int
}

// FilteredSpans returns an iterator over the maximal all-rows-match
// sub-spans of the range Spans(startPK, n) would cover, under f.
func (g *Generator) FilteredSpans(startPK, n int64, f *SpanFilter) FilteredSpanIter {
	return FilteredSpanIter{it: g.Spans(startPK, n), f: f}
}

// Next returns the next matching sub-span, in pk order.
func (it *FilteredSpanIter) Next() (Span, bool) {
	if it.f == nil {
		return it.it.Next()
	}
	for {
		if it.i < len(it.buf) {
			sp := it.buf[it.i]
			it.i++
			return sp, true
		}
		sp, ok := it.it.Next()
		if !ok {
			return Span{}, false
		}
		it.buf = it.f.Clip(it.buf[:0], sp)
		it.i = 0
	}
}
