package scan

import (
	"fmt"
	"io"

	"github.com/dsl-repro/hydra/internal/matgen"
)

// EncodeScan drains sc into w using the named materialization format
// (csv, jsonl, sql, heap, spans), producing a self-contained file of
// exactly the scanned rows: header, body, footer, with page/statement
// geometry computed over the scan's own row count and offsets relative
// to its start. Because every backend yields the identical batch
// sequence for the same spec, the encoded bytes are identical no matter
// where the scan came from — `hydra scan -remote` output is byte-for-
// byte `hydra scan -summary` output. A full-table, unprojected scan
// encodes exactly the file Materialize writes for that table (spans
// excepted: batches carry no run structure, so its runs are re-coalesced
// from rows — the same rows under a different framing).
//
// It returns the number of rows encoded; the scan is left at its end
// (or at the failure point), with Close still the caller's job.
func EncodeScan(w io.Writer, sc *Scan, format string) (int64, error) {
	sink, err := matgen.SinkFor(format)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sink.Ext() == "" {
		return 0, fmt.Errorf("%w: format %q produces no byte stream", ErrSpec, format)
	}
	l := matgen.Layout{Table: sc.Table(), Cols: sc.Cols(), TotalRows: sc.NumRows()}
	if err := matgen.CheckLayout(sink, l); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	align, err := sink.Align(len(l.Cols))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sc.Filtered() && align != 1 {
		// Page- and statement-structured formats derive their geometry
		// from contiguous row offsets; a filtered scan's row stream has
		// gaps, so those formats cannot represent it.
		return 0, fmt.Errorf("%w: format %q (alignment %d) cannot encode filtered scans", ErrSpec, format, align)
	}
	hdr, err := sink.Header(l)
	if err != nil {
		return 0, err
	}
	if len(hdr) > 0 {
		if _, err := w.Write(hdr); err != nil {
			return 0, err
		}
	}
	enc := sink.NewEncoder(l)
	var rows int64
	buf := make([]byte, 0, 1<<16)
	base := sc.StartRow()
	for sc.Next() {
		b := sc.Batch()
		// Offsets are scan-relative so statement groups and heap pages
		// restart at the scanned range: any range encodes to a valid,
		// self-contained file. A filtered scan has no meaningful range
		// offsets (its batches have gaps); it counts emitted rows
		// instead, which alignment-1 encoders ignore anyway.
		rowOff := b.Start - 1 - base
		if sc.Filtered() {
			rowOff = rows
		}
		buf = enc.AppendBatch(buf[:0], b, rowOff)
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
	ftr, err := sink.Footer(l)
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
