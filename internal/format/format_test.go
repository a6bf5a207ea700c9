package format

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// TestPacer: over rows that never continue a run, predictions thin out
// to one in 64 rows; a run of two rows brings them back at once.
func TestPacer(t *testing.T) {
	var p pacer
	tries, last := 0, 0
	for row := 0; row < 6400; row++ {
		if p.try() {
			if row-last > 64 {
				t.Fatalf("rows %d to %d parsed without a prediction", last, row)
			}
			tries, last = tries+1, row
			p.record(1)
		}
	}
	if tries > 6+6400/64 {
		t.Fatalf("%d predictions over 6400 single-row runs", tries)
	}
	for p.rest > 0 {
		p.try()
	}
	if p.record(2); !p.try() {
		t.Fatal("a run of two rows did not bring predictions back")
	}
	if p.record(1); p.try() {
		t.Fatal("the first miss after a run rests no row")
	}
}

// TestEncodersRefuseNonRows: every encoder refuses, with ErrSpan and
// without writing, a span of no rows or one reaching outside the pks
// [1, MaxInt64], and writes the span that ends at MaxInt64.
func TestEncodersRefuseNonRows(t *testing.T) {
	l := Layout{Table: "T", Cols: []string{"T_pk", "v"}, TotalRows: math.MaxInt64}
	for _, f := range all {
		for _, c := range []struct {
			start, n int64
			ok       bool
		}{
			{1, 1, true}, {math.MaxInt64, 1, true}, {math.MaxInt64 - 9, 10, true},
			{0, 1, false}, {-17, 3, false}, {math.MinInt64, 2, false}, {1, 0, false}, {5, -1, false},
			{math.MaxInt64, 2, false}, {math.MaxInt64 - 9, 11, false}, {2, math.MaxInt64, false},
		} {
			dst := []byte("kept")
			got, err := f.NewEncoder(l).AppendSpan(dst, tuplegen.Span{Start: c.start, N: c.n, Vals: []int64{7}})
			switch {
			case c.ok && err != nil:
				t.Errorf("%s: %d rows from pk %d: %v", f.Name(), c.n, c.start, err)
			case !c.ok && (!errors.Is(err, ErrSpan) || string(got) != "kept"):
				t.Errorf("%s: %d rows from pk %d: wrote %q, err %v", f.Name(), c.n, c.start, got, err)
			}
		}
	}
}

// roundTrip is one FuzzFormatRoundTrip input, drawn from a seed: runs
// tiling rows [start, start+total) of table T, in span order, and the
// layout they are written in.
type roundTrip struct {
	runs  []tuplegen.Span
	l     Layout
	pkCol int // the pk's file column, -1 when the layout has none
}

// newRoundTrip draws runs of 1 to 300 rows, a third of them one row
// long, over up to two non-key columns and two FKs whose values repeat
// often enough that neighbouring runs sometimes match, and half of whose
// runs spread their FKs as sawtooths. The pk is the layout's first file
// column (at = 0), a middle one (1) or absent (2); spans keeps span
// order. The first pk is 1, just below a power of ten (so lines cross
// the block edges …99 → …100), anywhere below a million (so a heap file
// starts mid-page of its table), such that the last is math.MaxInt64, or
// below 1 (no table row, which every encoder refuses).
func newRoundTrip(f *Format, seed int64, at, from int) roundTrip {
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	nv, nf := rng.IntN(3), rng.IntN(3)
	if nv+nf == 0 {
		nv = 1
	}
	cols := []string{"T_pk"}
	for c := range nv {
		cols = append(cols, fmt.Sprintf("v%d", c))
	}
	for c := range nf {
		cols = append(cols, fmt.Sprintf("t%d_fk", c))
	}
	idx := make([]int, len(cols))
	for c := range idx {
		idx[c] = c
	}
	pkCol := 0
	switch {
	case f == Spans:
	case at == 1:
		idx[0], idx[1], pkCol = 1, 0, 1
	case at == 2:
		idx, pkCol = idx[1:], -1
	}
	total := 1 + rng.Int64N(2000)
	var start int64
	switch from {
	case 0:
		start = 1
	case 1:
		start = int64(math.Pow10(2+rng.IntN(5))) - 1 - rng.Int64N(99)
	case 2:
		start = 1 + rng.Int64N(1_000_000)
	case 3:
		start = math.MaxInt64 - total + 1
	default:
		start = -rng.Int64N(1000)
	}
	values := []int64{-1, 0, 5, 1 << 40, math.MinInt64, rng.Int64()}
	rt := roundTrip{pkCol: pkCol}
	for pk := start; pk-start < total; {
		n := min(1+rng.Int64N(300), total-(pk-start))
		if rng.IntN(3) == 0 {
			n = 1
		}
		sp := tuplegen.Span{Start: pk, N: n, Off: rng.Int64N(100)}
		for range nv {
			sp.Vals = append(sp.Vals, values[rng.IntN(len(values))])
		}
		spread := nf > 0 && rng.IntN(2) == 0
		for range nf {
			sp.FKs = append(sp.FKs, 1+rng.Int64N(3))
			if spread {
				sp.FKSpans = append(sp.FKSpans, 1+rng.Int64N(7))
			}
		}
		rt.runs = append(rt.runs, sp)
		pk += n
	}
	rt.l = Layout{Table: "T", TotalRows: total, Idx: idx, StartRow: start - 1}
	for _, src := range idx {
		rt.l.Cols = append(rt.l.Cols, cols[src])
	}
	if f == Spans {
		rt.l.Idx = nil // the span's own frames
	}
	return rt
}

// encode writes the runs as one file of the format: header, every run
// through the encoder, footer. It returns the first error of AppendSpan.
func (rt *roundTrip) encode(t *testing.T, f *Format) ([]byte, error) {
	if _, err := f.Align(rt.l); err != nil {
		t.Fatal(err)
	}
	file, err := f.Header(rt.l)
	if err != nil {
		t.Fatal(err)
	}
	enc := f.NewEncoder(rt.l)
	for _, sp := range rt.runs {
		if file, err = enc.AppendSpan(file, sp); err != nil {
			return file, err
		}
	}
	footer, err := f.Footer(rt.l)
	if err != nil {
		t.Fatal(err)
	}
	return append(file, footer...), nil
}

// fileRows expands runs into rows in file order: column c of a row is
// span-order column idx[c] of its run.
func fileRows(runs []tuplegen.Span, idx []int) [][]int64 {
	var rows [][]int64
	for _, sp := range runs {
		for i := range sp.N {
			row := make([]int64, len(idx))
			for c, src := range idx {
				row[c] = sp.At(src, i)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// sameSpan reports whether two runs are the same rows written the same
// way: a frame carries the FK spans only where one spreads, and the
// values before them as one tail.
func sameSpan(a, b tuplegen.Span) bool {
	spans := func(sp tuplegen.Span) []int64 {
		if slices.ContainsFunc(sp.FKSpans, func(s int64) bool { return s > 1 }) {
			return sp.FKSpans
		}
		return nil
	}
	return a.Start == b.Start && a.N == b.N && a.Off == b.Off &&
		slices.Equal(append(slices.Clone(a.Vals), a.FKs...), append(slices.Clone(b.Vals), b.FKs...)) &&
		slices.Equal(spans(a), spans(b))
}

// FuzzFormatRoundTrip holds every scannable format to its one contract:
// what the encoder writes, header and footer included, the run reader
// reads back as the same rows — asked for at most a random number of
// rows a run — and, for spans, as the same runs. code picks the format
// (csv, jsonl, heap, spans), shape the pk's place (shape%3) and the
// first pk (shape/3%5; see newRoundTrip). Runs that start below pk 1 must
// be refused with ErrSpan instead.
func FuzzFormatRoundTrip(f *testing.F) {
	formats := []*Format{CSV, JSONL, Heap, Spans}
	for code := range len(formats) {
		for shape := range 12 {
			f.Add(int64(12*code+shape+1), uint8(code), uint8(shape))
		}
	}
	for code := range len(formats) {
		for at := range 3 {
			f.Add(int64(12*len(formats)+3*code+at+1), uint8(code), uint8(12+at))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, code, shape uint8) {
		fm := formats[int(code)%len(formats)]
		rt := newRoundTrip(fm, seed, int(shape)%3, int(shape)/3%5)
		file, err := rt.encode(t, fm)
		if rt.runs[0].Start < 1 {
			if !errors.Is(err, ErrSpan) {
				t.Fatalf("%s %v: a run from pk %d encoded, err %v", fm.Name(), rt.l.Cols, rt.runs[0].Start, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		rr, err := fm.NewRunReader(bufio.NewReaderSize(bytes.NewReader(file), 1<<16), Part{
			Cols: rt.l.Cols, PKCol: rt.pkCol, Start: rt.l.StartRow, Rows: rt.l.TotalRows, Header: true})
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		rng := rand.New(rand.NewPCG(uint64(seed), 8))
		// A run reader presents the pk first, then the other file columns
		// in file order.
		spanIdx := make([]int, len(rt.l.Cols))
		for c := range spanIdx {
			switch {
			case c == rt.pkCol:
				spanIdx[c] = 0
			case rt.pkCol < 0 || c < rt.pkCol:
				spanIdx[c] = c + 1
			default:
				spanIdx[c] = c
			}
		}
		var got []tuplegen.Span
		var rows [][]int64
		for left := rt.l.TotalRows; left > 0; {
			max := left
			if rng.IntN(2) == 0 {
				max = min(left, 1+rng.Int64N(400))
			}
			sp, err := rr.Run(max)
			if err != nil {
				t.Fatalf("%s %v after %d of %d rows: %v", fm.Name(), rt.l.Cols, rt.l.TotalRows-left, rt.l.TotalRows, err)
			}
			if sp.N < 1 || sp.N > max && fm != Spans {
				t.Fatalf("%s: a run of %d rows, asked for at most %d", fm.Name(), sp.N, max)
			}
			left -= sp.N
			got = append(got, *sp)
			got[len(got)-1].Vals = slices.Clone(sp.Vals)
			got[len(got)-1].FKs = slices.Clone(sp.FKs)
			got[len(got)-1].FKSpans = slices.Clone(sp.FKSpans)
			rows = append(rows, fileRows(got[len(got)-1:], spanIdx)...)
		}
		want := fileRows(rt.runs, rt.l.cols())
		if !slices.EqualFunc(rows, want, slices.Equal) {
			for i := range min(len(rows), len(want)) {
				if !slices.Equal(rows[i], want[i]) {
					t.Fatalf("%s %v: row %d of %d reads %v, was written %v", fm.Name(), rt.l.Cols, i, len(want), rows[i], want[i])
				}
			}
			t.Fatalf("%s %v: %d rows read, %d written", fm.Name(), rt.l.Cols, len(rows), len(want))
		}
		if fm == Spans && !slices.EqualFunc(got, rt.runs, sameSpan) {
			t.Fatalf("spans: runs read as %+v, written as %+v", got, rt.runs)
		}
	})
}
