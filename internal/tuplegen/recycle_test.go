package tuplegen

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/pred"
)

// TestRecycledBatchMatchesReference is the property test of what a batch
// remembers about its memory. Seeded sequences of runs are filled cell
// by cell, the way a scan fills its grid, into one batch shared by every
// sequence: runs cross cell edges, many are one row long, neighbouring
// runs often share a column's value, FKs spread on some, the projection
// changes from cell to cell (pk first, in the middle, absent, or the
// identity; wider and narrower), cells grow past the batch's capacity,
// and some sequences are clipped by a filter into pieces with gaps. Every
// cell must hold exactly what a per-element reference says it does.
func TestRecycledBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	b := &Batch{}
	var clip []Span
	for trial := 0; trial < 400; trial++ {
		if rng.Intn(4) == 0 {
			b = &Batch{} // capacity grows again, part-way through runs
		}
		nvals, nfks := rng.Intn(4), rng.Intn(4)
		ncols := 1 + nvals + nfks
		runs := randomRuns(rng, nvals, nfks)
		last := runs[len(runs)-1]
		total := last.Start - 1 + last.N
		var conj pred.Conjunct
		var sf *SpanFilter
		if rng.Intn(3) == 0 {
			conj = randomConjunct(rng, runs, ncols, total)
			var err error
			if sf, err = NewSpanFilter(conj, nvals, nfks); err != nil {
				t.Fatal(err)
			}
		}
		next := 0 // the first run not wholly before the cell
		for lo := int64(0); lo < total; {
			hi := min(lo+[]int64{1, 3, 64, 100, 1000, 3000, 8192}[rng.Intn(7)], total)
			idx := randomIdx(rng, ncols)
			width := ncols
			if idx != nil {
				width = len(idx)
			}
			b.Reshape(width, int(hi-lo), lo+1)
			at := 0
			for r := next; r < len(runs) && runs[r].Start-1 < hi; r++ {
				sp := cellPiece(runs[r], lo, hi)
				if sf == nil {
					at = b.FillSpan(at, &sp, idx)
					continue
				}
				clip = sf.Clip(clip[:0], sp)
				for i := range clip {
					at = b.FillSpan(at, &clip[i], idx)
				}
			}
			b.Truncate(at)

			want := referenceCell(runs[next:], lo, hi, idx, ncols, conj, sf != nil)
			if b.N != len(want) || len(b.Cols) != width {
				t.Fatalf("trial %d cell [%d,%d) idx %v: %d rows × %d columns, want %d × %d",
					trial, lo, hi, idx, b.N, len(b.Cols), len(want), width)
			}
			for i, row := range want {
				for c, v := range row {
					if got := b.Cols[c][i]; got != v {
						t.Fatalf("trial %d cell [%d,%d) idx %v filter %v: row %d col %d = %d, want %d",
							trial, lo, hi, idx, sf != nil, i, c, got, v)
					}
				}
			}
			for next < len(runs) && runs[next].Start-1+runs[next].N <= hi {
				next++
			}
			lo = hi
		}
	}
}

// randomRuns draws a sequence of runs tiling pks 1.. . Lengths are mostly
// short (one row is the commonest) with some longer than any cell; every
// value comes from a pool of three non-zero values, so a column often
// keeps its value from one run to the next, and a column's memory left
// at zero never passes for one. In spread mode some FKs cycle.
func randomRuns(rng *rand.Rand, nvals, nfks int) []Span {
	pool := []int64{rng.Int63n(1e6) + 1, -rng.Int63n(1e6) - 1, 1 << 40}
	spread := rng.Intn(2) == 0
	runs := make([]Span, 1+rng.Intn(12))
	start := int64(1)
	for r := range runs {
		sp := Span{Start: start, N: []int64{1, 1, 1, 2, 3, 50, 700, 5000, 20000}[rng.Intn(9)], Off: rng.Int63n(100)}
		for range nvals {
			sp.Vals = append(sp.Vals, pool[rng.Intn(len(pool))])
		}
		for range nfks {
			sp.FKs = append(sp.FKs, pool[rng.Intn(len(pool))])
			if spread {
				sp.FKSpans = append(sp.FKSpans, []int64{1, 2, 7, 1000}[rng.Intn(4)])
			}
		}
		runs[r] = sp
		start += sp.N
	}
	return runs
}

// randomConjunct restricts one or two columns: the pk to a window, a
// value column to a value some run holds, or an FK to a range, which on
// a spread FK clips runs into pieces with gaps between them.
func randomConjunct(rng *rand.Rand, runs []Span, ncols int, total int64) pred.Conjunct {
	c := pred.NewConjunct()
	for range 1 + rng.Intn(2) {
		attr := rng.Intn(ncols)
		sp := runs[rng.Intn(len(runs))]
		switch v := refAt(sp, attr, 0); {
		case attr == 0:
			a := rng.Int63n(total) + 1
			c = c.With(0, pred.Range(a, a+rng.Int63n(total)))
		case attr <= len(sp.Vals):
			c = c.With(attr, pred.Point(v))
		default:
			c = c.With(attr, pred.Range(v, v+rng.Int63n(4)))
		}
	}
	return c
}

// randomIdx draws a cell's projection: the identity (nil), or a random
// selection of columns with the pk first, in the middle, or absent.
func randomIdx(rng *rand.Rand, ncols int) []int {
	others := rng.Perm(ncols - 1)
	for i := range others {
		others[i]++
	}
	others = others[:rng.Intn(ncols)]
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return append([]int{0}, others...)
	case 2:
		mid := len(others) / 2
		return slices.Insert(slices.Clone(others), mid, 0)
	default:
		if len(others) == 0 {
			return []int{0}
		}
		return others
	}
}

// cellPiece is the part of run sp in rows [lo, hi), as a scan's fill
// loop cuts it.
func cellPiece(sp Span, lo, hi int64) Span {
	if skip := lo + 1 - sp.Start; skip > 0 {
		sp.Start, sp.Off, sp.N = sp.Start+skip, sp.Off+skip, sp.N-skip
	}
	sp.N = min(sp.N, hi+1-sp.Start)
	return sp
}

// referenceCell lists the rows of [lo, hi) a filled cell must hold, one
// element at a time: each row of the runs in range, kept if the filter
// accepts it, projected by idx.
func referenceCell(runs []Span, lo, hi int64, idx []int, ncols int, conj pred.Conjunct, filtered bool) [][]int64 {
	var rows [][]int64
	full := make([]int64, ncols)
	for _, sp := range runs {
		for i := max(lo+1-sp.Start, 0); i < min(sp.N, hi+1-sp.Start); i++ {
			for c := range full {
				full[c] = refAt(sp, c, i)
			}
			if filtered && !conj.Eval(full) {
				continue
			}
			if idx == nil {
				rows = append(rows, slices.Clone(full))
				continue
			}
			row := make([]int64, len(idx))
			for c, src := range idx {
				row[c] = full[src]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// refAt is column c of sp's tuple i, from the span's definition.
func refAt(sp Span, c int, i int64) int64 {
	if c == 0 {
		return sp.Start + i
	}
	if c <= len(sp.Vals) {
		return sp.Vals[c-1]
	}
	k := c - 1 - len(sp.Vals)
	if sp.FKSpans != nil && sp.FKSpans[k] > 1 {
		return sp.FKs[k] + (sp.Off+i)%sp.FKSpans[k]
	}
	return sp.FKs[k]
}
