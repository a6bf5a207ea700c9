package matgen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"github.com/dsl-repro/hydra/internal/tuplegen"
)

// --- spans ---

// spansSink is the run-native format: where every other sink renders a
// summary-row run into its N tuples, this one writes the run itself, so
// thousands of rows cost a few dozen bytes and a reader rebuilds them
// with tuplegen.Batch.FillSpan — the one format only a summary-based
// generator can offer. A stream is a bare sequence of frames (no
// header, no footer, alignment 1), one per tuplegen.Span:
//
//	frame = uvarint(len(body)) body crc
//	body  = uvarint(Start) uvarint(N) uvarint(Off)
//	        varint(v) x (ncols-1)            Vals then base FKs
//	        uvarint(k) uvarint(span) x k     k = 0, or the FK count when spread
//	crc   = CRC-32C of everything before it in the frame, little-endian
//
// Widths come from the layout, not the frame: ncols is the stream's
// column count, and the last k of its ncols-1 tail values are the FKs
// the modular fills apply to (FK c of tuple i is base + (Off+i)%span
// where span > 1). A frame carries its own Start, so frames need no
// surrounding context: a filtered stream simply omits frames, a resumed
// stream starts with a frame clipped at the resume row, and shard parts
// concatenate into a valid stream. The frames themselves are clipped at
// chunk and shard boundaries, so — like gzip member framing — the bytes
// depend on where a table was split; the rows they decode to do not.
//
// The decoder lives with its consumers, in internal/scan.
type spansSink struct{}

func (spansSink) Name() string                  { return "spans" }
func (spansSink) Ext() string                   { return ".spans" }
func (spansSink) Align(int) (int, error)        { return 1, nil }
func (spansSink) Header(Layout) ([]byte, error) { return nil, nil }
func (spansSink) Footer(Layout) ([]byte, error) { return nil, nil }
func (spansSink) NewEncoder(l Layout) Encoder   { return &spansEncoder{idx: l.Idx} }

// CheckLayout implements LayoutChecker: a frame anchors its run at the
// primary key, which therefore has to be the layout's first column.
// Projections are the reader's job for this format (the idx argument of
// tuplegen.Batch.FillSpan); one that keeps the pk first is still encodable,
// as frames of the laid-out tail.
func (spansSink) CheckLayout(l Layout) error {
	if len(l.Cols) > 0 {
		if table, ok := strings.CutSuffix(l.Cols[0], "_pk"); ok && table == l.Table {
			return nil
		}
	}
	return fmt.Errorf("format \"spans\" anchors runs at the primary key: the layout must start with %s_pk (project on the reader instead)", l.Table)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type spansEncoder struct {
	idx  []int   // Layout.Idx: nil, or the pk then the laid-out tail
	body []byte  // scratch: the frame under construction
	vals []int64 // scratch: a projected frame's tail
}

// AppendSpan writes the span's own frame. Under a projection it writes
// the laid-out tail instead: one frame for the run, or one per row where
// a laid-out FK spreads. Runs that the projection makes equal are not
// merged, so projected frame boundaries are the summary's.
func (e *spansEncoder) AppendSpan(dst []byte, sp tuplegen.Span) []byte {
	if e.idx == nil {
		fkSpans := sp.FKSpans // written only where some FK spreads
		if !slices.ContainsFunc(fkSpans, func(s int64) bool { return s > 1 }) {
			fkSpans = nil
		}
		return e.appendFrame(dst, sp.Start, sp.N, sp.Off, sp.Vals, sp.FKs, fkSpans)
	}
	tail := e.idx[1:]
	frames, n := int64(1), sp.N
	if slices.ContainsFunc(tail, sp.Spreads) {
		frames, n = sp.N, 1
	}
	for i := range frames {
		e.vals = e.vals[:0]
		for _, src := range tail {
			e.vals = append(e.vals, sp.At(src, i))
		}
		dst = e.appendFrame(dst, sp.Start+i, n, 0, e.vals, nil, nil)
	}
	return dst
}

//hydra:hotpath
func (e *spansEncoder) appendFrame(dst []byte, start, n, off int64, vals, fks, fkSpans []int64) []byte {
	b := e.body[:0]
	b = binary.AppendUvarint(b, uint64(start))
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(off))
	for _, v := range vals {
		b = binary.AppendVarint(b, v)
	}
	for _, fk := range fks {
		b = binary.AppendVarint(b, fk)
	}
	b = binary.AppendUvarint(b, uint64(len(fkSpans)))
	for _, s := range fkSpans {
		b = binary.AppendUvarint(b, uint64(s))
	}
	e.body = b
	at := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], castagnoli))
}
