package scan

import (
	"fmt"
	"io"
	"slices"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// EncodeScan drains sc into w using the named materialization format
// (csv, jsonl, sql, heap, spans), producing a self-contained file of
// exactly the scanned rows: header, body, footer, with page/statement
// geometry computed over the scan's own row count and counted from its
// first row. Each batch is cut into runs — rows whose pk (where the
// layout has one) goes up by one and whose other columns stay the same —
// and the runs go to the format's encoder, the one Materialize writes
// summary runs with. Because every backend yields the identical batch
// sequence for the same spec, the encoded bytes are identical no matter
// where the scan came from — `hydra scan -remote` output is byte-for-
// byte `hydra scan -summary` output. A full-table, unprojected scan
// encodes exactly the file Materialize writes for that table (spans
// excepted: batches carry no spread-FK structure, so a spread run comes
// out as runs of one row — the same rows under a different framing).
//
// It returns the number of rows encoded; the scan is left at its end
// (or at the failure point), with Close still the caller's job.
func EncodeScan(w io.Writer, sc *Scan, name string) (int64, error) {
	f, err := format.ByName(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if !f.Writes() {
		return 0, fmt.Errorf("%w: format %q produces no byte stream", ErrSpec, name)
	}
	l := format.Layout{Table: sc.Table(), Cols: sc.Cols(), TotalRows: sc.NumRows(), StartRow: sc.StartRow()}
	align, err := f.Align(l)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sc.Filtered() && align != 1 {
		// Page- and statement-structured formats derive their geometry
		// from contiguous row offsets; a filtered scan's row stream has
		// gaps, so those formats cannot represent it.
		return 0, fmt.Errorf("%w: format %q (alignment %d) cannot encode filtered scans", ErrSpec, name, align)
	}
	hdr, err := f.Header(l)
	if err != nil {
		return 0, err
	}
	if len(hdr) > 0 {
		if _, err := w.Write(hdr); err != nil {
			return 0, err
		}
	}
	// A run is presented in span order: the pk, then the layout's other
	// columns as Vals.
	pkCol := slices.Index(l.Cols, l.Table+"_pk")
	l.Idx = make([]int, len(l.Cols))
	for c := range l.Idx {
		l.Idx[c] = spanCol(c, pkCol)
	}
	enc := f.NewEncoder(l)
	row := make([]int64, 1+slices.Max(l.Idx)) // a run's first row in span order
	sp := tuplegen.Span{Vals: row[1:]}
	var rows int64
	buf := make([]byte, 0, 1<<16)
	for sc.Next() {
		b := sc.Batch()
		buf = buf[:0]
		for i := 0; i < b.N; {
			j := runEnd(b, pkCol, i)
			// Rows are contiguous unless the scan is filtered, and then
			// only the pk, where it is laid out, places them.
			row[0] = b.Start + int64(i)
			for c, col := range b.Cols {
				row[l.Idx[c]] = col[i]
			}
			sp.Start, sp.N = row[0], int64(j-i)
			var err error
			if buf, err = enc.AppendSpan(buf, sp); err != nil {
				return rows, err
			}
			i = j
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return rows, err
			}
		}
		rows += int64(b.N)
	}
	if err := sc.Err(); err != nil {
		return rows, err
	}
	ftr, err := f.Footer(l)
	if err != nil {
		return rows, err
	}
	if len(ftr) > 0 {
		if _, err := w.Write(ftr); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// runEnd returns the end of the run that starts at row i of b: the
// first row after it whose pk, at column pkCol (none when negative), is
// not one higher than the row before's, or whose other columns differ.
// It checks a window of rows a column at a time, each column up to the
// end the columns before it allow, and doubles the window while the run
// fills it: a run of n rows costs O(n) compares per column, whatever
// its length.
//
//hydra:hotpath
func runEnd(b *tuplegen.Batch, pkCol, i int) int {
	end := i + 1
	for w := 1; end < b.N; w *= 2 {
		lim := min(end+w, b.N)
		j := lim
		for c, col := range b.Cols {
			step := int64(0)
			if c == pkCol {
				step = 1
			}
			k := end
			for k < j && col[k] == col[k-1]+step {
				k++
			}
			j = k
		}
		if j < lim {
			return j
		}
		end = lim
	}
	return end
}
